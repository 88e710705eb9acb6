"""The oracle: a ground-truth detector built from one row of the class table.

An *oracle* is a ground-truth failure detector: it computes its output from
the run's failure pattern instead of from messages.  Oracles are how the paper
enriches a system with a detector class — ``HAS[HΩ]`` means "asynchronous
homonymous system where each process can query an HΩ black box" — without
saying anything about how the box is built.

Every oracle takes a *stabilization time*.  Before it, the oracle may output
arbitrary (but type-correct and safety-preserving) values, optionally
different across processes and changing over time; from the stabilization time
on it outputs the eventual values the class definition promises.  This lets
tests and experiments control how long consensus has to cope with an unstable
detector.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..errors import ConfigurationError, DetectorError
from ..identity import ProcessId
from ..sim.clock import Time
from ..sim.system import DetectorServices

if TYPE_CHECKING:
    from .table import DetectorRow

__all__ = ["OracleDetector", "check_oracle_times", "stable_draw"]


def stable_draw(*parts: object) -> int:
    """A deterministic pseudo-random integer derived from ``parts``.

    Oracles use this (instead of Python's ``hash``, which is randomised per
    interpreter run) for their pre-stabilization "noise", so complete runs are
    reproducible across processes and machines for a fixed configuration.
    """
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def check_oracle_times(stabilization_time: Time | None, noise_period: Time | None) -> None:
    """Refuse a stabilization time that is not finite and ≥ 0, and a NaN noise period.

    Shared by :class:`OracleDetector` and the spec's detector section, so a
    bad time fails where the spec is made, before any run starts.  An
    infinite stabilization time would also never end the loop that schedules
    one wake-up per noise period.
    """
    if stabilization_time is not None and not 0 <= stabilization_time < math.inf:  # NaN too
        raise ConfigurationError("the stabilization time must be finite and non-negative")
    if noise_period is not None and math.isnan(noise_period):
        raise ConfigurationError("the noise period must be a number")


class OracleDetector:
    """The ground-truth detector of one class: a row of the table, run.

    :meth:`view_for` hands :meth:`reader` the two kinds of output the row
    declares.  *Eventual* output, ``row.eventual(run, process)``, is a
    per-process constant of the run (the failure pattern in ``self.pattern`` is
    fixed), resolved at the first stabilised read.  *Transient* output is what
    is said before: ``row.transient(run, process)`` is evaluated on every read;
    declared with a third parameter, ``row.transient(run, process, window)``,
    it is a pure function of the noise window, goes through :meth:`per_window`
    and is recomputed only when the window index changes.  A row without a
    transient (P, AP) is accurate at all times: its ``eventual(run, process,
    now)`` depends on who is alive *now* and is evaluated on every read.
    ``run`` is this object.  A ``history`` (spec data, decoded by the row)
    replaces one process's transient from each entry's time on
    (:meth:`scripted`); the other processes' readers are built as without
    one.  Per-run facts are resolved once; a view is still
    queried after every event (like ``stop_when``), so keep what a reader does
    per call O(1).
    """

    def __init__(
        self,
        row: "DetectorRow",
        services: DetectorServices,
        *,
        stabilization_time: Time | None = None,
        noise_period: Time | None = None,
        history: Mapping[str, Any] | None = None,
    ) -> None:
        if row.unique_ids_only and not services.membership.is_uniquely_identified:
            raise DetectorError(
                f"class {row.cls} is only defined for systems with unique identifiers; "
                "the membership has homonyms"
            )
        self.row = row
        self.services = services
        self.membership = services.membership
        self.pattern = services.failure_pattern
        self.clock = services.clock
        if stabilization_time is None:
            # By default the oracle stabilises shortly after the last crash,
            # which is the earliest time a real detector could possibly settle.
            stabilization_time = self.pattern.last_crash_time() + 1.0
        check_oracle_times(stabilization_time, noise_period)
        self.stabilization_time = float(stabilization_time)
        self.noise_period = noise_period
        self.history = self._decoded(history) if history else {}
        self._schedule_wakeups()

    def _decoded(self, history: Mapping[str, Any]) -> dict[int, tuple[list, list]]:
        """``process index -> (times, outputs)``; a ConfigurationError names the row."""
        row, size, decoded = self.row, self.membership.size, {}
        try:
            if row.decode is None:
                raise ValueError("the class takes no history")
            for index, entries in history.items():
                if not str(index).isdigit() or int(index) >= size:
                    raise ValueError(f"it names process {index!r} of {size}")
                times = [float(time) for time, _ in entries]
                if times != sorted(times) or min(times, default=0.0) < 0:
                    raise ValueError(f"process {index}'s times {times} do not ascend from 0")
                decoded[int(index)] = times, [row.decode(value) for _, value in entries]
        except (TypeError, ValueError) as error:
            raise ConfigurationError(f"detector {row.name!r}: bad history: {error}") from None
        return decoded

    # ------------------------------------------------------------------
    # Wake-ups: blocked processes must be re-evaluated when outputs change.
    # ------------------------------------------------------------------
    def _schedule_wakeups(self) -> None:
        self.services.schedule(self.stabilization_time, self.services.poke_all)
        if self.noise_period and self.noise_period > 0:
            boundary = self.noise_period
            while boundary < self.stabilization_time:
                self.services.schedule(boundary, self.services.poke_all)
                boundary += self.noise_period
        for times, _ in self.history.values():
            for time in times:
                if time < self.stabilization_time:
                    self.services.schedule(time, self.services.poke_all)

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    def noise_window(self) -> int:
        """The index of the current pre-stabilization noise window.

        Oracles that output changing pre-stabilization values key their choice
        on ``(process, noise_window())`` so the output is deterministic within
        a window and changes across windows.
        """
        if not self.noise_period or self.noise_period <= 0:
            return 0
        return int(self.clock.now / self.noise_period)

    def reader(
        self, eventual: Callable[[], Any], transient: Callable[[], Any]
    ) -> Callable[[], Any]:
        """The query function of one process: ``transient()`` on every read
        before stabilization, then ``eventual()`` — called once, at the first
        stabilised read — as the same object forever."""
        clock, stabilization_time = self.clock, self.stabilization_time
        settled = False
        value = None

        def read():
            nonlocal settled, value
            if settled:
                return value
            if clock.now < stabilization_time:
                return transient()
            settled, value = True, eventual()
            return value

        return read

    def per_window(self, draw: Callable[[int], Any]) -> Callable[[], Any]:
        """A transient output that only depends on the noise window:
        ``draw(noise_window())``, recomputed when the window index changes."""
        window = value = None

        def read():
            nonlocal window, value
            current = self.noise_window()
            if current != window:
                window, value = current, draw(current)
            return value

        return read

    def scripted(self, times: list, outputs: list, otherwise: Callable[[], Any]) -> Callable:
        """``outputs[i]`` from ``times[i]`` on; ``otherwise()`` before the first entry."""
        clock = self.clock

        def read():
            at = bisect_right(times, clock.now)
            return outputs[at - 1] if at else otherwise()

        return read

    def view_for(self, process: ProcessId):
        """The per-process query view: the row's view over one reader."""
        row = self.row
        if row.transient is None:
            eventual, clock = row.eventual, self.clock
            return row.view(lambda: eventual(self, process, clock.now))
        transient = partial(row.transient, self, process)
        if row.windowed:
            transient = self.per_window(transient)
        if process.index in self.history:
            transient = self.scripted(*self.history[process.index], transient)
        return row.view(self.reader(partial(row.eventual, self, process), transient))
