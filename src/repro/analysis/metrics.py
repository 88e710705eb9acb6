"""Per-run metrics extracted from consensus traces."""

from __future__ import annotations

from typing import Any

from ..consensus.validator import distinct_proposals, validate_consensus
from ..sim.failures import FailurePattern
from ..sim.trace import RunTrace

__all__ = ["consensus_metrics"]


def consensus_metrics(trace: RunTrace, pattern: FailurePattern) -> dict[str, Any]:
    """The outcome and cost of one consensus spec run, from one verdict over
    what the run proposed: the six metrics of its record."""
    verdict = validate_consensus(trace, pattern, distinct_proposals(pattern.membership))
    return {
        "decided": verdict.termination_ok,
        "safe": verdict.validity_ok and verdict.agreement_ok,
        "decision_time": verdict.last_decision_time,
        "rounds": verdict.max_decision_round,
        "broadcasts": trace.broadcast_invocations,
        "message_copies": trace.message_copies_sent,
    }
