"""The crash vocabulary: one table from a crash kind to its resolver.

A :class:`~repro.runtime.spec.CrashSpec` names a kind of :data:`CRASH_KINDS`
and its parameters; the kind's resolver, ``(membership, **params) ->
CrashSchedule``, takes the spec's own parameter names, so ``CrashSpec.build``
is a single lookup.  The spec's constructors (``no_crashes``, ``minority``,
``cascading``, ``leaders``, ``fraction``, ``crashes_at``) are the one way to
name a kind.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Mapping

from ..errors import ConfigurationError
from ..identity import ProcessId
from ..membership import Membership
from ..sim.clock import Time
from ..sim.failures import CrashSchedule

__all__ = ["CRASH_KINDS"]


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


def _none(membership: Membership) -> CrashSchedule:
    return CrashSchedule.none()


def _minority(
    membership: Membership, *, at: Time = 10.0, stagger: Time = 2.0, count: int | None = None
) -> CrashSchedule:
    """The last ``count`` processes (the largest minority by default), so the
    smallest identifiers — the likely leaders — stay alive."""
    if count is None:
        count = (membership.size - 1) // 2
    return CrashSchedule.crash_processes(_last(membership, count), time=at, stagger=stagger)


def _cascading(
    membership: Membership,
    *,
    count: int,
    first_at: Time = 5.0,
    interval: Time = 10.0,
    partial_broadcast_fraction: float | None = None,
) -> CrashSchedule:
    """``count`` processes (capped at ``n − 1``), one after another ``interval``
    apart.  With ``partial_broadcast_fraction`` set, each victim's final
    broadcast is only partially delivered — the paper's "crash while
    broadcasting" case."""
    return CrashSchedule.crash_processes(
        _last(membership, min(count, membership.size - 1)),
        time=first_at,
        stagger=interval,
        partial_broadcast_fraction=partial_broadcast_fraction,
    )


def _leaders(
    membership: Membership, *, count: int | None = None, at: Time = 10.0, stagger: Time = 2.0
) -> CrashSchedule:
    """The ``count`` processes with the smallest identifiers (``max(1, (n − 1)
    // 2)`` by default).  The HΩ implementations and oracles elect the smallest
    correct identifier, so killing exactly those processes forces leader
    re-election — the most adversarial crash placement for leader-based
    consensus."""
    if count is None:
        count = max(1, (membership.size - 1) // 2)
    by_identity = sorted(
        membership.processes, key=lambda process: (repr(membership.identity_of(process)), process)
    )
    victims = by_identity[: _checked(membership, count)]
    return CrashSchedule.crash_processes(victims, time=at, stagger=stagger)


def _fraction(
    membership: Membership,
    *,
    fraction: float,
    at: Time = 10.0,
    stagger: Time = 2.0,
    seed: int = 0,
) -> CrashSchedule:
    """A random ``fraction`` of the processes (capped at ``n − 1``)."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError("fraction must lie in [0, 1]")
    count = min(int(round(fraction * membership.size)), membership.size - 1)
    if count <= 0:
        return CrashSchedule.none()
    victims = random.Random(seed).sample(list(membership.processes), k=count)
    return CrashSchedule.crash_processes(victims, time=at, stagger=stagger)


def _at_times(membership: Membership, *, times: Mapping[Any, Time] | None = None) -> CrashSchedule:
    crashes = {ProcessId(int(index)): when for index, when in (times or {}).items()}
    return CrashSchedule.at_times(crashes)


#: Every crash kind a spec may name, with its resolver.
CRASH_KINDS: dict[str, Callable[..., CrashSchedule]] = {
    "none": _none,
    "minority": _minority,
    "cascading": _cascading,
    "leaders": _leaders,
    "fraction": _fraction,
    "at_times": _at_times,
}
