"""Fault plans for the real backend.

A :class:`ScenarioSpec`'s crash schedule is declarative data; on the
simulator it becomes scheduled ``crash()`` events, and here it becomes a
:class:`FaultPlan` — the concrete list of (node, time, action) injections the
orchestrator executes against live OS processes.  ``kill`` is a clean crash
(SIGKILL: no atexit handlers, no flushing — the process is simply gone, the
closest a POSIX process gets to the paper's crash model); ``suspend`` is
SIGSTOP, which models a process that stops taking steps but keeps its sockets
open — the failure mode that distinguishes a timeout-based detector from a
connection-reset one.

The injector records ``t_fail`` at the moment the signal is actually sent,
on the same epoch-relative monotonic base as every node log (Snippet 1 §5/§8),
so detection latency is an honest cross-process subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..membership import Membership
from ..runtime.spec import RealBackend, ScenarioSpec

__all__ = ["FaultAction", "FaultPlan", "fault_plan"]

@dataclass(frozen=True)
class FaultAction:
    """One scheduled injection against one node.

    ``resume_after`` (suspend only) schedules a SIGCONT ``resume_after`` time
    units after the SIGSTOP — the "process stops taking steps for a while,
    then continues" failure mode that a timeout-based detector must tolerate
    (either by declaring the stalled identity dead and standing by it, or by
    never suspecting a stall shorter than its timeout).  Every value comes
    checked: the action and ``resume_after`` from
    :class:`~repro.runtime.spec.RealBackend`, ``at`` from the crash schedule.
    """

    index: int
    identity: object
    at: float  # scenario time units after t0
    action: str = "kill"
    resume_after: float | None = None  # time units after `at`; suspend only


@dataclass(frozen=True)
class FaultPlan:
    """Every injection of one run, ordered by time."""

    actions: tuple[FaultAction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "actions", tuple(sorted(self.actions, key=lambda a: (a.at, a.index)))
        )

    @property
    def victims(self) -> tuple[int, ...]:
        return tuple(action.index for action in self.actions)


def fault_plan(spec: ScenarioSpec, membership: Membership) -> FaultPlan:
    """Resolve a spec's crash schedule into concrete injections."""
    schedule = spec.crashes.build(membership)
    settings = RealBackend(**spec.backend_params)
    action, resume_after = settings.fault_action, settings.resume_after
    actions = []
    for process in membership.processes:
        at = schedule.crash_time(process)
        if at is not None:
            actions.append(
                FaultAction(
                    index=process.index,
                    identity=membership.identity_of(process),
                    at=float(at),
                    action=action,
                    resume_after=resume_after,
                )
            )
    return FaultPlan(tuple(actions))
