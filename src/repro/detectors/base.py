"""Oracle base class and standard trace keys for detector outputs.

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
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import DetectorError
from ..identity import ProcessId
from ..sim.clock import Time
from ..sim.system import DetectorServices

__all__ = ["OutputKeys", "OracleDetector", "stable_draw"]


def stable_draw(*parts: object) -> int:
    """A deterministic pseudo-random integer derived from ``parts``.

    Oracles use this (instead of Python's ``hash``, which is randomised per
    interpreter run) for their pre-stabilization "noise", so complete runs are
    reproducible across processes and machines for a fixed configuration.
    """
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class OutputKeys:
    """Standard trace keys under which detector outputs are recorded.

    Emulated detectors (reductions and message-passing implementations) record
    their output variables under these keys so the property checkers can find
    them regardless of which algorithm produced them.
    """

    H_LEADER: str = "HOmega.h_leader"
    H_MULTIPLICITY: str = "HOmega.h_multiplicity"
    H_TRUSTED: str = "DiamondHP.h_trusted"
    H_QUORA: str = "HSigma.h_quora"
    H_LABELS: str = "HSigma.h_labels"
    SIGMA_TRUSTED: str = "Sigma.trusted"
    DIAMOND_P_TRUSTED: str = "DiamondP.trusted"
    OMEGA_LEADER: str = "Omega.leader"
    SCRIPT_E_ALIVE: str = "ScriptE.alive"
    AP_ANAP: str = "AP.anap"
    A_OMEGA_LEADER: str = "AOmega.a_leader"
    A_SIGMA_PAIRS: str = "ASigma.a_sigma"


#: Singleton instance used throughout the code base.
KEYS = OutputKeys()


class OracleDetector:
    """Common machinery for ground-truth detectors.

    Concrete oracles implement :meth:`view_for` (returning the class-specific
    view) by handing :meth:`reader` the two kinds of output an oracle has.
    *Eventual* output is a per-process constant of the run (the failure pattern
    in ``self.pattern`` is fixed), resolved at the first stabilised read.
    *Transient* output is what is said before; when it is a pure function of
    ``(process, noise_window())`` it goes through :meth:`per_window` and is
    recomputed only when the window index changes.  Per-run facts are resolved
    once; a view is still queried after every event (like ``stop_when``), so
    keep what a reader does per call O(1).
    """

    def __init__(
        self,
        services: DetectorServices,
        *,
        stabilization_time: Time | None = None,
        noise_period: Time | None = None,
    ) -> None:
        self.services = services
        self.membership = services.membership
        self.pattern = services.failure_pattern
        self.clock = services.clock
        if stabilization_time is None:
            # By default the oracle stabilises shortly after the last crash,
            # which is the earliest time a real detector could possibly settle.
            stabilization_time = self.pattern.last_crash_time() + 1.0
        if stabilization_time < 0:
            raise DetectorError("the stabilization time cannot be negative")
        self.stabilization_time = float(stabilization_time)
        self.noise_period = noise_period
        self._rng = services.rng_streams.stream(f"oracle:{type(self).__name__}")
        self._schedule_wakeups()

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

    # ------------------------------------------------------------------
    # Helpers for concrete oracles
    # ------------------------------------------------------------------
    @property
    def stabilized(self) -> bool:
        """Whether the oracle has reached its stabilization time."""
        return self.clock.now >= self.stabilization_time

    def noise_window(self) -> int:
        """The index of the current pre-stabilization noise window.

        Oracles that output changing pre-stabilization values key their choice
        on ``(process, noise_window())`` so the output is deterministic within
        a window and changes across windows.
        """
        if not self.noise_period or self.noise_period <= 0:
            return 0
        return int(self.clock.now / self.noise_period)

    def correct_identities(self):
        """``I(Correct)`` for this run."""
        return self.pattern.correct_identity_multiset()

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

    def view_for(self, process: ProcessId):
        """Return the per-process query view (implemented by subclasses)."""
        raise NotImplementedError
