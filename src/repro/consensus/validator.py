"""Validity / Agreement / Termination checking for consensus runs.

The validator takes a run trace, the run's failure pattern, and the proposal
each process started with, and reports whether the three consensus properties
of Section 5.1 hold:

* **Validity** — every decided value is one of the proposed values;
* **Agreement** — all decided values are equal (including decisions taken by
  processes that later crash);
* **Termination** — every correct process decides (within the simulated
  horizon; the caller controls how generous that horizon is).

It is also the one place that knows what a spec run proposes
(:func:`distinct_proposals`), so each property is a ``CHECKS`` row judging
``(trace, pattern)`` alone (:data:`CONSENSUS_CHECKS`).  Validity and
agreement must hold whatever the detectors said before they stabilised; only
termination may depend on them settling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..detectors.properties import CheckResult
from ..identity import ProcessId
from ..membership import Membership
from ..sim.clock import Time
from ..sim.failures import FailurePattern
from ..sim.trace import RunTrace
from .base import ConsensusKeys

__all__ = ["CONSENSUS_CHECKS", "ConsensusVerdict", "distinct_proposals", "validate_consensus"]

KEYS = ConsensusKeys()


def distinct_proposals(membership: Membership) -> dict:
    """What a spec run proposes: one distinct value per process (agreement is non-trivial)."""
    return {process: f"value-{process.index}" for process in membership.processes}


@dataclass(frozen=True)
class ConsensusVerdict:
    """The outcome of validating one consensus run: each property's violations."""

    validity: tuple[str, ...] = ()
    agreement: tuple[str, ...] = ()
    termination: tuple[str, ...] = ()
    decided_values: dict[ProcessId, Any] = field(default_factory=dict)
    decision_times: dict[ProcessId, Time] = field(default_factory=dict)
    decision_rounds: dict[ProcessId, int] = field(default_factory=dict)

    validity_ok = property(lambda self: not self.validity)
    agreement_ok = property(lambda self: not self.agreement)
    termination_ok = property(lambda self: not self.termination)

    @property
    def violations(self) -> tuple[str, ...]:
        """Every property's violations, validity first."""
        return self.validity + self.agreement + self.termination

    @property
    def ok(self) -> bool:
        """Whether all three properties hold."""
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    @property
    def last_decision_time(self) -> Time | None:
        """When the last process decided, or ``None`` when nobody decided."""
        if not self.decision_times:
            return None
        return max(self.decision_times.values())

    @property
    def max_decision_round(self) -> int | None:
        """The largest round in which any process decided."""
        if not self.decision_rounds:
            return None
        return max(self.decision_rounds.values())


def validate_consensus(
    trace: RunTrace, pattern: FailurePattern, proposals: Mapping[ProcessId, Any]
) -> ConsensusVerdict:
    """Validate one consensus run; ``proposals`` maps every process to its proposal."""
    decided_values: dict[ProcessId, Any] = {}
    decision_times: dict[ProcessId, Time] = {}
    decision_rounds: dict[ProcessId, int] = {}
    for process, decision in trace.decisions.items():
        decided_values[process] = decision.value
        decision_times[process] = decision.time
        round_of_decision = trace.final_value(process, KEYS.DECIDED_ROUND)
        if round_of_decision is not None:
            decision_rounds[process] = round_of_decision

    proposed_values = set(proposals.values())
    validity = tuple(
        f"{process!r} decided {value!r}, which was never proposed"
        for process, value in decided_values.items()
        if value not in proposed_values
    )
    distinct_values = set(decided_values.values())
    agreement = (
        (f"processes decided different values: {sorted(map(repr, distinct_values))}",)
        if len(distinct_values) > 1
        else ()
    )
    undecided_correct = sorted(
        process for process in pattern.correct if process not in decided_values
    )
    termination = (
        ("correct processes never decided: " + ", ".join(map(repr, undecided_correct)),)
        if undecided_correct
        else ()
    )
    return ConsensusVerdict(
        validity=validity,
        agreement=agreement,
        termination=termination,
        decided_values=decided_values,
        decision_times=decision_times,
        decision_rounds=decision_rounds,
    )


def _property_check(name: str):
    """The ``CHECKS`` row judging one property of a spec run; termination's
    ``_time`` is the last decision time."""

    def check(trace: RunTrace, pattern: FailurePattern) -> CheckResult:
        verdict = validate_consensus(trace, pattern, distinct_proposals(pattern.membership))
        decided_by = verdict.last_decision_time if name == "termination" else None
        return CheckResult.from_violations(getattr(verdict, name), stabilization_time=decided_by)

    return check


#: Check name → ``(trace, pattern) -> CheckResult``, one per property.
CONSENSUS_CHECKS = {
    f"consensus_{name}": _property_check(name)
    for name in ("validity", "agreement", "termination")
}
