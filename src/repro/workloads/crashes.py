"""Crash-schedule generators used by the experiments."""

from __future__ import annotations

import random

from ..errors import ConfigurationError
from ..membership import Membership
from ..sim.clock import Time
from ..sim.failures import CrashEvent, CrashSchedule

__all__ = [
    "no_crashes",
    "minority_crashes",
    "crash_fraction",
    "cascading_crashes",
    "leader_targeted_crashes",
]


def _last(membership: Membership, count: int) -> list:
    """The ``count`` processes at the end of the process list."""
    return list(membership.processes)[membership.size - _checked(membership, count) :]


def _checked(membership: Membership, count: int) -> int:
    if not 0 <= count < membership.size:
        raise ConfigurationError(
            f"cannot crash {count} of {membership.size} processes: the count must be "
            "non-negative and at least one process must stay correct"
        )
    return count


def no_crashes() -> CrashSchedule:
    """No process ever crashes."""
    return CrashSchedule.none()


def minority_crashes(
    membership: Membership, *, at: Time = 10.0, stagger: Time = 2.0, count: int | None = None
) -> CrashSchedule:
    """Crash a minority of the processes (the largest minority by default).

    Victims are chosen deterministically from the end of the process list so
    the smallest identifiers — the likely leaders — stay alive; see
    :func:`leader_targeted_crashes` for the opposite choice.
    """
    maximum_minority = (membership.size - 1) // 2
    if count is None:
        count = maximum_minority
    return CrashSchedule.crash_processes(_last(membership, count), time=at, stagger=stagger)


def crash_fraction(
    membership: Membership,
    fraction: float,
    *,
    at: Time = 10.0,
    stagger: Time = 2.0,
    seed: int = 0,
) -> CrashSchedule:
    """Crash a random ``fraction`` of the processes (capped at ``n − 1``)."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError("fraction must lie in [0, 1]")
    count = min(int(round(fraction * membership.size)), membership.size - 1)
    if count <= 0:
        return CrashSchedule.none()
    rng = random.Random(seed)
    victims = rng.sample(list(membership.processes), k=count)
    return CrashSchedule.crash_processes(victims, time=at, stagger=stagger)


def cascading_crashes(
    membership: Membership,
    count: int,
    *,
    first_at: Time = 5.0,
    interval: Time = 10.0,
    partial_broadcast_fraction: float | None = None,
) -> CrashSchedule:
    """Crash ``count`` processes one after another, ``interval`` apart.

    With ``partial_broadcast_fraction`` set, each victim's final broadcast is
    only partially delivered — the paper's "crash while broadcasting" case.
    """
    events = tuple(
        CrashEvent(
            process=victim,
            time=first_at + index * interval,
            partial_broadcast_fraction=partial_broadcast_fraction,
        )
        for index, victim in enumerate(sorted(_last(membership, count)))
    )
    return CrashSchedule(events)


def leader_targeted_crashes(
    membership: Membership, count: int, *, at: Time = 10.0, stagger: Time = 2.0
) -> CrashSchedule:
    """Crash the processes carrying the smallest identifiers.

    The HΩ implementations and oracles elect the smallest correct identifier,
    so killing exactly those processes forces leader re-election — the most
    adversarial crash placement for leader-based consensus.
    """
    by_identity = sorted(
        membership.processes, key=lambda process: (repr(membership.identity_of(process)), process)
    )
    victims = by_identity[: _checked(membership, count)]
    return CrashSchedule.crash_processes(victims, time=at, stagger=stagger)
