"""Structured run traces.

Everything the property checkers, validators, and metrics need to judge a run
is recorded here: time-stamped per-process variable snapshots (detector
outputs, estimates), decisions, message counts, and crash times.  Algorithm
code writes to the trace only through ``ctx.record`` / ``ctx.decide``.

A snapshot is stored once, as a ``(time, value)`` pair in the series of its
``(process, key)``; :meth:`RunTrace.records_of` hands that series out as is.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Collection, Sequence

from ..identity import ProcessId
from .clock import Time

__all__ = ["Decision", "RunTrace"]


@dataclass(frozen=True)
class Decision:
    """A consensus decision taken by one process."""

    time: Time
    process: ProcessId
    value: Any


class RunTrace:
    """Accumulates the observable history of a single simulation run."""

    def __init__(self) -> None:
        #: ``(process, key) -> [(time, value), ...]`` in recording order.
        self._records: dict[tuple[ProcessId, str], list[tuple[Time, Any]]] = defaultdict(list)
        self._decisions: dict[ProcessId, Decision] = {}
        self._crashes: dict[ProcessId, Time] = {}
        # Plain dicts with ``.get`` defaults: these counters tick once per
        # broadcast and once per delivered copy, where Counter's Python-level
        # ``__missing__`` shows up in profiles.
        self._sends_by_kind: dict[str, int] = {}
        #: Delivered copies per message kind, read as is.  The process
        #: runtime bumps it in place, once per delivered copy, instead of
        #: calling :meth:`record_delivery`.
        self.delivered_by_kind: dict[str, int] = {}
        self._send_copies = 0
        self._broadcast_invocations = 0
        self._end_time: Time = 0.0

    # ------------------------------------------------------------------
    # Writing (used by the runtime and the network)
    # ------------------------------------------------------------------
    def record(self, process: ProcessId, key: str, value: Any, time: Time) -> None:
        """Append a variable snapshot for ``process``."""
        self._records[(process, key)].append((time, value))

    def record_decision(self, process: ProcessId, value: Any, time: Time) -> None:
        """Record the (first) decision of ``process``; later calls are ignored.

        Consensus algorithms may broadcast/relay a decision several times; the
        decision that counts for the validator is the first one.
        """
        if process not in self._decisions:
            self._decisions[process] = Decision(time=time, process=process, value=value)

    def record_crash(self, process: ProcessId, time: Time) -> None:
        """Record that ``process`` crashed at ``time``."""
        self._crashes.setdefault(process, time)

    def record_broadcast(self, kind: str, copies: int) -> None:
        """Record one broadcast invocation producing ``copies`` link messages."""
        self._broadcast_invocations += 1
        sends = self._sends_by_kind
        sends[kind] = sends.get(kind, 0) + 1
        self._send_copies += copies

    def record_delivery(self, kind: str) -> None:
        """Record one message copy delivered to a process."""
        deliveries = self.delivered_by_kind
        deliveries[kind] = deliveries.get(kind, 0) + 1

    def mark_end(self, time: Time) -> None:
        """Record the time at which the simulation stopped."""
        self._end_time = max(self._end_time, time)

    # ------------------------------------------------------------------
    # Reading — variable snapshots
    # ------------------------------------------------------------------
    def records_of(self, process: ProcessId, key: str) -> Sequence[tuple[Time, Any]]:
        """The ``(time, value)`` series of one variable of one process.

        The stored series itself, not a copy: read it, do not change it.
        """
        return self._records.get((process, key), ())

    def final_value(self, process: ProcessId, key: str, default: Any = None) -> Any:
        """The last recorded value of a variable, or ``default`` when never set."""
        series = self._records.get((process, key))
        if not series:
            return default
        return series[-1][1]

    def first_time_value_holds(
        self, process: ProcessId, key: str, predicate
    ) -> Time | None:
        """The earliest time after which the variable satisfies ``predicate`` forever.

        Returns ``None`` when the variable never stabilises into the predicate
        (i.e. the last recorded value does not satisfy it, or the key was never
        recorded).
        """
        series = self._records.get((process, key))
        if not series or not predicate(series[-1][1]):
            return None
        stable_since: Time | None = None
        for time, value in series:
            if predicate(value):
                if stable_since is None:
                    stable_since = time
            else:
                stable_since = None
        return stable_since

    def processes_with_records(self) -> frozenset[ProcessId]:
        """Processes that recorded at least one snapshot."""
        return frozenset(process for process, _ in self._records)

    # ------------------------------------------------------------------
    # Reading — decisions, crashes, messages
    # ------------------------------------------------------------------
    @property
    def decisions(self) -> dict[ProcessId, Decision]:
        """The first decision of every process that decided."""
        return dict(self._decisions)

    def decided(self, process: ProcessId) -> bool:
        """Return ``True`` when ``process`` decided."""
        return process in self._decisions

    def all_decided(self, processes: Collection[ProcessId]) -> bool:
        """Return ``True`` when every given (distinct) process decided.

        Too few decisions for that settles it without looking at any process,
        which is the answer after almost every event of a run.
        """
        decisions = self._decisions
        return len(decisions) >= len(processes) and all(
            process in decisions for process in processes
        )

    def last_decision_time(self) -> Time | None:
        """The time of the latest decision, or ``None`` when nobody decided."""
        if not self._decisions:
            return None
        return max(decision.time for decision in self._decisions.values())

    @property
    def crashes(self) -> dict[ProcessId, Time]:
        """Crash times observed during the run."""
        return dict(self._crashes)

    @property
    def end_time(self) -> Time:
        """The simulated time at which the run stopped."""
        return self._end_time

    # Message accounting -------------------------------------------------
    @property
    def broadcast_invocations(self) -> int:
        """How many times ``broadcast(m)`` was invoked."""
        return self._broadcast_invocations

    @property
    def message_copies_sent(self) -> int:
        """Total link-level message copies produced by all broadcasts."""
        return self._send_copies

    def broadcasts_by_kind(self) -> dict[str, int]:
        """Broadcast invocations grouped by message kind."""
        return dict(self._sends_by_kind)
