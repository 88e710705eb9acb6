"""The real backend's fault timeline.

A :class:`ScenarioSpec`'s crash schedule is declarative data; on the
simulator it becomes scheduled ``crash()`` events, and here
:func:`injection_timeline` turns it into the signals the orchestrator sends
to live OS processes.  The spec's ``backend_params`` say which
(:class:`~repro.runtime.spec.RealBackend`): ``kill`` is a clean crash
(SIGKILL: no atexit handlers, no flushing — the process is simply gone, the
closest a POSIX process gets to the paper's crash model); ``suspend`` is
SIGSTOP, which models a process that stops taking steps but keeps its sockets
open — the failure mode that distinguishes a timeout-based detector from a
connection-reset one.  With ``resume_after`` a SIGCONT follows each SIGSTOP
that many time units later: the stalled process continues, and a
timeout-based detector must tolerate it (by declaring the stalled identity
dead and standing by it, or by never suspecting a stall shorter than its
timeout).

The orchestrator records ``t_fail`` at the moment the signal is actually
sent, on the same epoch-relative monotonic base as every node log (Snippet 1
§5/§8), so detection latency is an honest cross-process subtraction; the
victim's identity and the action are read from the spec where each line of
``injector.jsonl`` is written.
"""

from __future__ import annotations

from ..membership import Membership
from ..runtime.spec import RealBackend, ScenarioSpec

__all__ = ["injection_timeline"]


def injection_timeline(spec: ScenarioSpec, membership: Membership) -> list[tuple[float, str, int]]:
    """Every ``(at, "fault" | "resume", index)`` injection of one run, by time.

    ``at`` is in scenario time units after t0.  Faults come in the crash
    schedule's ``(at, index)`` order, each followed by its resume; the sort
    by time is stable, so a resume that ties with a later fault stays ahead
    of it.
    """
    resume_after = RealBackend(**spec.backend_params).resume_after
    timeline = []
    for event in spec.crashes.build(membership).events:
        at, index = float(event.time), event.process.index
        timeline.append((at, "fault", index))
        if resume_after is not None:
            timeline.append((at + resume_after, "resume", index))
    timeline.sort(key=lambda entry: entry[0])
    return timeline
