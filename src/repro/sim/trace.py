"""Structured run traces.

Everything the property checkers, validators, and metrics need to judge a run
is recorded here: time-stamped per-process variable snapshots (detector
outputs, estimates), decisions, message counts, and crash times.  Algorithm
code writes to the trace only through ``ctx.record`` / ``ctx.decide``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Collection, Iterator

from ..errors import TraceError
from ..identity import ProcessId
from .clock import Time

__all__ = ["TraceRecord", "Decision", "RunTrace"]


@dataclass(frozen=True)
class TraceRecord:
    """One time-stamped variable snapshot of one process."""

    time: Time
    process: ProcessId
    key: str
    value: Any


@dataclass(frozen=True)
class Decision:
    """A consensus decision taken by one process."""

    time: Time
    process: ProcessId
    value: Any


class RunTrace:
    """Accumulates the observable history of a single simulation run."""

    def __init__(self) -> None:
        self._records: dict[ProcessId, list[TraceRecord]] = defaultdict(list)
        self._records_by_key: dict[tuple[ProcessId, str], list[TraceRecord]] = defaultdict(list)
        self._decisions: dict[ProcessId, Decision] = {}
        self._crashes: dict[ProcessId, Time] = {}
        # Plain dicts with ``.get`` defaults: these counters tick once per
        # broadcast and once per delivered copy, where Counter's Python-level
        # ``__missing__`` shows up in profiles.
        self._sends_by_kind: dict[str, int] = {}
        #: Delivered copies per message kind.  Public because the process
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
        entry = TraceRecord(time=time, process=process, key=key, value=value)
        self._records[process].append(entry)
        self._records_by_key[(process, key)].append(entry)

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
    def records_of(self, process: ProcessId, key: str | None = None) -> tuple[TraceRecord, ...]:
        """All snapshots of ``process`` (optionally restricted to one key)."""
        if key is None:
            return tuple(self._records.get(process, ()))
        return tuple(self._records_by_key.get((process, key), ()))

    def values_of(self, process: ProcessId, key: str) -> tuple[tuple[Time, Any], ...]:
        """The ``(time, value)`` series of one variable of one process."""
        return tuple((entry.time, entry.value) for entry in self.records_of(process, key))

    def final_value(self, process: ProcessId, key: str, default: Any = None) -> Any:
        """The last recorded value of a variable, or ``default`` when never set."""
        entries = self._records_by_key.get((process, key))
        if not entries:
            return default
        return entries[-1].value

    def value_at(self, process: ProcessId, key: str, at: Time, default: Any = None) -> Any:
        """The value a variable held at time ``at`` (last record with time <= at)."""
        entries = self._records_by_key.get((process, key), [])
        chosen = default
        for entry in entries:
            if entry.time <= at:
                chosen = entry.value
            else:
                break
        return chosen

    def first_time_value_holds(
        self, process: ProcessId, key: str, predicate
    ) -> Time | None:
        """The earliest time after which the variable satisfies ``predicate`` forever.

        Returns ``None`` when the variable never stabilises into the predicate
        (i.e. the last recorded value does not satisfy it, or the key was never
        recorded).
        """
        entries = self._records_by_key.get((process, key), [])
        if not entries or not predicate(entries[-1].value):
            return None
        stable_since: Time | None = None
        for entry in entries:
            if predicate(entry.value):
                if stable_since is None:
                    stable_since = entry.time
            else:
                stable_since = None
        return stable_since

    def keys_recorded(self, process: ProcessId) -> frozenset[str]:
        """The variable names ever recorded by ``process``."""
        return frozenset(entry.key for entry in self._records.get(process, ()))

    def processes_with_records(self) -> frozenset[ProcessId]:
        """Processes that recorded at least one snapshot."""
        return frozenset(self._records)

    def all_records(self) -> Iterator[TraceRecord]:
        """Iterate over every snapshot in the trace (unspecified order across processes)."""
        for entries in self._records.values():
            yield from entries

    # ------------------------------------------------------------------
    # Reading — decisions, crashes, messages
    # ------------------------------------------------------------------
    @property
    def decisions(self) -> dict[ProcessId, Decision]:
        """The first decision of every process that decided."""
        return dict(self._decisions)

    def decision_of(self, process: ProcessId) -> Decision:
        """The decision of ``process``; raises :class:`TraceError` if it never decided."""
        try:
            return self._decisions[process]
        except KeyError:
            raise TraceError(f"{process!r} never decided in this run") from None

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

    @property
    def message_copies_delivered(self) -> int:
        """Total link-level message copies delivered to live processes (a copy
        reaching a crashed process is dispatched but not counted)."""
        return sum(self.delivered_by_kind.values())

    def broadcasts_by_kind(self) -> dict[str, int]:
        """Broadcast invocations grouped by message kind."""
        return dict(self._sends_by_kind)

    def deliveries_by_kind(self) -> dict[str, int]:
        """Delivered message copies grouped by message kind."""
        return dict(self.delivered_by_kind)
