"""The detection judge: who was declared dead, when, and was it true.

Monitoring programs (heartbeat, ring, gossip, the churn membership program)
narrate a suspicion as a ``declared_dead`` record whose value names the
target.  :func:`judge_detections` is the one place that turns those records
into a verdict, on either backend (a real run's node logs load into the same
:class:`~repro.sim.trace.RunTrace`).  The rule, pinned:

* the earliest declaration of a failed target by a correct observer *at or
  after* the target's ``t_fail`` is its detection; later duplicates (other
  observers, a repeated line) count once and never move it;
* a declaration *before* ``t_fail``, or of a target that never fails, is a
  false suspicion — a violation, never a detection;
* a failed target with no detection is missed.

What a *target* is belongs to the caller: ``hb_detection`` targets identities
(an identity fails when its last bearer does — homonyms cover for each
other), ``topo_detection`` targets process indices, and the churn checker
targets the crashed indices it demands a removal for.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..identity import ProcessId
from ..sim.clock import Time
from ..sim.failures import FailurePattern
from ..sim.trace import RunTrace, TraceRecord
from .properties import CheckResult

__all__ = [
    "DECLARED_DEAD",
    "Detections",
    "judge_detections",
    "median_iqr",
    "check_hb_detection",
    "check_topo_detection",
]

DECLARED_DEAD = "declared_dead"


def median_iqr(values: Sequence[float]) -> dict | None:
    """Median and Tukey quartiles (median of each half) of a sample.

    Returns ``None`` for an empty sample.  With one value the quartiles
    collapse onto it (IQR 0); odd sample sizes exclude the middle element
    from both halves, even sizes split exactly — the textbook convention,
    chosen so the tier-1 tests can pin exact expected numbers.
    """
    if not values:
        return None
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        q1 = q3 = ordered[0]
    else:
        half = n // 2
        q1 = statistics.median(ordered[:half])
        q3 = statistics.median(ordered[n - half :])
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
    }


@dataclass(frozen=True)
class Detections:
    """The verdict of :func:`judge_detections`."""

    #: ``t_detect − t_fail`` of every detected target.
    latencies: dict[Any, Time]
    #: Failed targets nobody declared at or after their ``t_fail``.
    missed: tuple[Any, ...]
    #: Declarations made before ``t_fail`` or against a target that never fails.
    false_suspicions: tuple[TraceRecord, ...]


def judge_detections(
    trace: RunTrace, observers: Iterable[ProcessId], failed: Mapping[Any, Time]
) -> Detections:
    """Apply the pinned detection rule (module docstring) to ``trace``.

    ``observers`` are the processes whose declarations count (the correct
    ones); ``failed`` maps every target that fails to its ``t_fail``.
    """
    t_detect: dict[Any, Time] = {}
    false_suspicions: list[TraceRecord] = []
    for observer in sorted(observers):
        for record in trace.records_of(observer, DECLARED_DEAD):
            t_fail = failed.get(record.value)
            if t_fail is None or record.time < t_fail:
                false_suspicions.append(record)
            elif record.time < t_detect.get(record.value, float("inf")):
                t_detect[record.value] = record.time
    return Detections(
        latencies={
            target: t_detect[target] - t_fail
            for target, t_fail in failed.items()
            if target in t_detect
        },
        missed=tuple(target for target in failed if target not in t_detect),
        false_suspicions=tuple(false_suspicions),
    )


def _detection_check(
    trace: RunTrace,
    pattern: FailurePattern,
    failed: Mapping[Any, Time],
    noun: str,
    *,
    publish_false_suspicions: bool,
) -> CheckResult:
    """Judge ``trace`` and shape the verdict as a registered check's result.

    ``hb_detection`` reports false suspicions as violations only: its metric
    key set is pinned (sweep rows stay byte-identical), and it never had the count.
    """
    verdict = judge_detections(trace, pattern.correct, failed)
    violations = [
        f"{record.process!r} declared {noun} {record.value!r} dead at t={record.time}, "
        + (
            f"before it failed at t={failed[record.value]}"
            if record.value in failed
            else "which never fails"
        )
        for record in verdict.false_suspicions
    ]
    if verdict.missed:
        violations.append(f"missed detections (by {noun}): {list(verdict.missed)!r}")
    median = statistics.median(verdict.latencies.values()) if verdict.latencies else None
    # details["metrics"] is folded into the RunRecord (namespaced by the check
    # name) by fold_checks, so sweeps aggregate without re-parsing traces.
    metrics: dict[str, Any] = {"detected": len(verdict.latencies), "missed": len(verdict.missed)}
    if publish_false_suspicions:
        metrics["false_suspicions"] = len(verdict.false_suspicions)
    metrics.update(
        median_latency=median, copies_sent=trace.message_copies_sent, end_time=trace.end_time
    )
    return CheckResult.from_violations(
        violations,
        stabilization_time=median,
        details={"latencies": verdict.latencies, "metrics": metrics},
    )


def check_hb_detection(trace: RunTrace, pattern: FailurePattern) -> CheckResult:
    """Judge a full-mesh heartbeat run: targets are *identities*.

    An identity fails only when every process bearing it has crashed (a
    surviving namesake keeps ACKing), at its last bearer's crash time.
    """
    crashes = trace.crashes
    membership = pattern.membership
    failed = {}
    for process in membership.processes:
        bearers = membership.homonyms_of(process)
        if all(p in crashes for p in bearers):
            failed[membership.identity_of(process)] = max(crashes[p] for p in bearers)
    return _detection_check(trace, pattern, failed, "identity", publish_false_suspicions=False)


def check_topo_detection(trace: RunTrace, pattern: FailurePattern) -> CheckResult:
    """Judge a sparse-topology (ring/gossip) run: targets are process *indices*.

    No homonym cover: every crashed index must be declared by some correct
    process — even when its direct monitors crashed with it, which the ring
    repairs by recomputing successor windows.
    """
    failed = {process.index: when for process, when in sorted(trace.crashes.items())}
    return _detection_check(trace, pattern, failed, "index", publish_false_suspicions=True)
