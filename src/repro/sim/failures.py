"""Crash failures: schedules and failure patterns.

A *crash schedule* says when (if ever) each process crashes and whether its
final broadcast is only partially delivered (the paper allows a crashing
broadcaster's message to reach "an arbitrary subset of processes").  A
*failure pattern* is the read-only view of the schedule used by oracles and
property checkers: ``Correct``, ``Faulty``, and ``alive_at(T)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..errors import ConfigurationError
from ..identity import IdentityMultiset, ProcessId
from ..membership import Membership
from .clock import Time

__all__ = [
    "CrashEvent",
    "CrashSchedule",
    "ChurnEvent",
    "ChurnSchedule",
    "FailurePattern",
]


@dataclass(frozen=True)
class CrashEvent:
    """The crash of one process.

    ``partial_broadcast_fraction`` only matters when the process crashes at
    the exact moment it is broadcasting: the fraction (rounded down) of the
    ``n`` copies that are still sent.  ``None`` means the crash is clean —
    either the whole broadcast went out or the process was between broadcasts.
    """

    process: ProcessId
    time: Time
    partial_broadcast_fraction: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.time < math.inf:  # NaN included
            raise ConfigurationError(f"a crash happens at a finite time from 0 on, not {self.time}")
        if self.partial_broadcast_fraction is not None and not (
            0.0 <= self.partial_broadcast_fraction <= 1.0
        ):
            raise ConfigurationError("partial_broadcast_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class CrashSchedule:
    """A set of crash events, at most one per process."""

    events: tuple[CrashEvent, ...] = ()
    #: Processes that crash at some point in the run.
    faulty: frozenset[ProcessId] = field(init=False, repr=False, compare=False, default=frozenset())
    _crash_times: Mapping[ProcessId, Time] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        crash_times: dict[ProcessId, Time] = {}
        for event in self.events:
            if event.process in crash_times:
                raise ConfigurationError(f"{event.process!r} crashes more than once")
            crash_times[event.process] = event.time
        object.__setattr__(self, "events", tuple(sorted(self.events, key=lambda e: (e.time, e.process))))
        object.__setattr__(self, "faulty", frozenset(crash_times))
        object.__setattr__(self, "_crash_times", crash_times)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "CrashSchedule":
        """A schedule with no crashes."""
        return cls(())

    @classmethod
    def at_times(cls, crashes: Mapping[ProcessId, Time]) -> "CrashSchedule":
        """Build a schedule from a ``{process: crash_time}`` mapping."""
        return cls(tuple(CrashEvent(process, time) for process, time in crashes.items()))

    @classmethod
    def crash_processes(
        cls,
        processes: Iterable[ProcessId],
        *,
        time: Time,
        stagger: Time = 0.0,
        partial_broadcast_fraction: float | None = None,
    ) -> "CrashSchedule":
        """Crash the given processes starting at ``time``, ``stagger`` apart."""
        events = []
        for offset, process in enumerate(sorted(processes)):
            events.append(
                CrashEvent(
                    process=process,
                    time=time + offset * stagger,
                    partial_broadcast_fraction=partial_broadcast_fraction,
                )
            )
        return cls(tuple(events))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def crash_time(self, process: ProcessId) -> Time | None:
        """Return the crash time of ``process`` or ``None`` when it is correct."""
        return self._crash_times.get(process)

    def validate_against(self, membership: Membership) -> None:
        """Check that the schedule only names processes of ``membership``."""
        known = set(membership.processes)
        for event in self.events:
            if event.process not in known:
                raise ConfigurationError(
                    f"crash schedule names {event.process!r}, which is not in the membership"
                )
        if len(self.faulty) >= membership.size:
            raise ConfigurationError(
                "the crash schedule kills every process; at least one must stay correct"
            )


# ----------------------------------------------------------------------
# Membership churn
# ----------------------------------------------------------------------
#: The churn event vocabulary: a late *join* (via an introducer), a
#: voluntary announced *leave*, a silent *down* (process stops responding,
#: like a crash), and an *up* recovery (the process rejoins with a higher
#: incarnation number).
CHURN_KINDS = ("join", "leave", "down", "up")


@dataclass(frozen=True)
class ChurnEvent:
    """One membership transition of one process, by index.

    Unlike crashes — which are simulator-enforced (the runtime stops
    delivering) — churn events are *program-level*: the cluster-membership
    program reads its own schedule slice and acts it out (a joiner sleeps
    until ``join``; a leaver announces and goes quiet; a down process drops
    traffic until its ``up``).  That keeps churn entirely inside the
    backend-portable program layer.
    """

    index: int
    kind: str
    time: Time

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ConfigurationError(
                f"unknown churn event kind {self.kind!r}; expected one of {CHURN_KINDS}"
            )
        if self.time < 0:
            raise ConfigurationError("a churn event cannot happen before time 0")
        if self.index < 0:
            raise ConfigurationError("churn events name non-negative process indices")

    def to_dict(self) -> dict:
        return {"index": self.index, "kind": self.kind, "time": self.time}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ChurnEvent":
        return cls(
            index=int(payload["index"]), kind=payload["kind"], time=payload["time"]
        )


@dataclass(frozen=True)
class ChurnSchedule:
    """A time-ordered set of churn events, validated per process.

    Per-process rules: at most one ``join`` (and it must be the first event);
    a ``leave`` is final; ``down``/``up`` must alternate (down first).  The
    whole schedule is JSON-round-trippable so it travels inside
    ``program_params`` to worker processes.
    """

    events: tuple[ChurnEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: (e.time, e.index, e.kind)))
        object.__setattr__(self, "events", ordered)
        by_index: dict[int, list[ChurnEvent]] = {}
        for event in ordered:
            by_index.setdefault(event.index, []).append(event)
        for index, history in by_index.items():
            down = False
            seen_join = False
            left = False
            for position, event in enumerate(history):
                if left:
                    raise ConfigurationError(
                        f"index {index} has churn events after its leave"
                    )
                if event.kind == "join":
                    if seen_join or position != 0:
                        raise ConfigurationError(
                            f"index {index} can only join once, as its first event"
                        )
                    seen_join = True
                elif event.kind == "leave":
                    left = True
                elif event.kind == "down":
                    if down:
                        raise ConfigurationError(
                            f"index {index} goes down twice without recovering"
                        )
                    down = True
                elif event.kind == "up":
                    if not down:
                        raise ConfigurationError(
                            f"index {index} recovers without being down"
                        )
                    down = False

    @classmethod
    def none(cls) -> "ChurnSchedule":
        """A schedule with no churn."""
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.events

    def joiners(self) -> frozenset[int]:
        """Indices that join after t=0 (not founding members)."""
        return frozenset(event.index for event in self.events if event.kind == "join")

    def to_dict(self) -> dict:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ChurnSchedule":
        return cls(
            tuple(ChurnEvent.from_dict(entry) for entry in payload.get("events", ()))
        )


@dataclass(frozen=True)
class FailurePattern:
    """Read-only failure information for a specific run.

    This is the ``F`` of the failure-detector literature: which processes are
    faulty, when they crash, and who is alive at any time.  Only the simulator,
    the oracles, and the property checkers may hold one — never algorithm code.
    """

    membership: Membership
    schedule: CrashSchedule
    #: ``Correct`` — processes that never crash in this run.
    correct: frozenset[ProcessId] = field(init=False, repr=False, compare=False, default=frozenset())
    #: Processes that crash at some point in this run.
    faulty: frozenset[ProcessId] = field(init=False, repr=False, compare=False, default=frozenset())
    _correct_identities: IdentityMultiset = field(init=False, repr=False, compare=False, default=None)
    _crash_times: Mapping[ProcessId, Time] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        # ``F`` is fixed for the run, so everything derived from it is built
        # here, once, and handed out as-is on the per-event path.
        schedule, membership = self.schedule, self.membership
        schedule.validate_against(membership)
        correct = frozenset(membership.processes) - schedule.faulty
        object.__setattr__(self, "correct", correct)
        object.__setattr__(self, "faulty", schedule.faulty)
        object.__setattr__(
            self, "_correct_identities", membership.identity_multiset(sorted(correct))
        )
        object.__setattr__(self, "_crash_times", schedule._crash_times)

    @property
    def max_faulty(self) -> int:
        """The number of processes that crash (the run's effective ``t``)."""
        return len(self.faulty)

    def is_correct(self, process: ProcessId) -> bool:
        """Return ``True`` when ``process`` never crashes."""
        return process not in self._crash_times

    def crash_time(self, process: ProcessId) -> Time | None:
        """Return when ``process`` crashes, or ``None`` for correct processes."""
        return self._crash_times.get(process)

    def is_alive_at(self, process: ProcessId, at: Time) -> bool:
        """Return ``True`` when ``process`` has not crashed (yet) at time ``at``."""
        crash = self._crash_times.get(process)
        return crash is None or at < crash

    def alive_at(self, at: Time) -> frozenset[ProcessId]:
        """The set of processes alive at time ``at``."""
        return frozenset(
            process
            for process in self.membership.processes
            if self.is_alive_at(process, at)
        )

    def last_crash_time(self) -> Time:
        """The time of the last crash (0 when there are none)."""
        if not self._crash_times:
            return 0.0
        return max(self._crash_times.values())

    def correct_identity_multiset(self):
        """``I(Correct)`` as an :class:`~repro.identity.IdentityMultiset`."""
        return self._correct_identities
