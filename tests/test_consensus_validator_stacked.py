"""Tests for the consensus validator, its three checks, and the stacked
(no-oracle) configuration.

The stacked configuration is the paper's end-to-end claim: running the
Figure 6 HΩ implementation *underneath* the Figure 8 consensus algorithm
solves consensus in a partially synchronous homonymous system with a majority
of correct processes and no oracle at all.
"""

from __future__ import annotations

import pytest

from repro.consensus import CONSENSUS_CHECKS, ConsensusKeys, validate_consensus
from repro.identity import ProcessId
from repro.membership import unique_identities
from repro.runtime import (
    CHECKS,
    ScenarioSpec,
    ScenarioValidationError,
    crashes_at,
    execute_spec,
    partial_sync,
    scenario,
)
from repro.runtime.engine import fold_checks
from repro.sim import CrashSchedule, RunTrace
from repro.sim.failures import FailurePattern

from .helpers import failed_checks

KEYS = ConsensusKeys()


def p(index: int) -> ProcessId:
    return ProcessId(index)


#: Three processes; p2 crashes at t = 5, so p0 and p1 must decide.
PATTERN = FailurePattern(unique_identities(3), CrashSchedule.at_times({p(2): 5.0}))


def forged(decisions) -> RunTrace:
    """A trace holding only ``{process: (value, time)}`` decisions, all in round 1."""
    trace = RunTrace()
    for process, (value, time) in decisions.items():
        trace.record_decision(process, value, time)
        trace.record(process, KEYS.DECIDED_ROUND, 1, time)
    return trace


class TestValidator:
    def setup_method(self):
        self.pattern = PATTERN
        self.proposals = {p(0): "a", p(1): "b", p(2): "c"}

    def test_all_good(self):
        trace = forged({p(0): ("a", 10.0), p(1): ("a", 12.0)})
        verdict = validate_consensus(trace, self.pattern, self.proposals)
        assert verdict.ok
        assert verdict.last_decision_time == 12.0
        assert verdict.max_decision_round == 1

    def test_validity_violation(self):
        trace = forged({p(0): ("not-proposed", 10.0), p(1): ("not-proposed", 10.0)})
        verdict = validate_consensus(trace, self.pattern, self.proposals)
        assert not verdict.validity_ok and not verdict.ok
        # Each property keeps its own violations.
        assert len(verdict.validity) == 2 and verdict.agreement == verdict.termination == ()
        assert verdict.violations == verdict.validity

    def test_agreement_violation(self):
        trace = forged({p(0): ("a", 10.0), p(1): ("b", 10.0)})
        verdict = validate_consensus(trace, self.pattern, self.proposals)
        assert not verdict.agreement_ok
        assert len(verdict.agreement) == 1 and verdict.validity == verdict.termination == ()

    def test_agreement_includes_faulty_deciders(self):
        trace = forged({p(0): ("a", 10.0), p(1): ("a", 10.0), p(2): ("b", 2.0)})
        verdict = validate_consensus(trace, self.pattern, self.proposals)
        assert not verdict.agreement_ok

    def test_termination_violation(self):
        trace = forged({p(0): ("a", 10.0)})
        verdict = validate_consensus(trace, self.pattern, self.proposals)
        assert not verdict.termination_ok
        assert not verdict.ok
        # Safety still holds: only termination is reported.
        assert verdict.validity_ok and verdict.agreement_ok
        assert verdict.violations == verdict.termination and len(verdict.termination) == 1

    def test_empty_run_reports_no_decisions(self):
        verdict = validate_consensus(RunTrace(), self.pattern, self.proposals)
        assert not verdict.termination_ok
        assert verdict.last_decision_time is None
        assert verdict.max_decision_round is None


class TestConsensusChecks:
    """Validity, agreement and termination as ``CHECKS`` rows: each judges
    ``(trace, pattern)`` over the proposals a spec run makes."""

    @staticmethod
    def _judge(decisions):
        return fold_checks(forged(decisions), PATTERN, CONSENSUS_CHECKS)

    def test_the_registry_resolves_the_three(self):
        for name, check in CONSENSUS_CHECKS.items():
            assert CHECKS.resolve(name) is check

    def test_a_correct_run_passes_and_termination_is_timed_by_the_last_decision(self):
        assert self._judge({p(0): ("value-1", 10.0), p(1): ("value-1", 12.0)}) == {
            "consensus_validity_ok": True,
            "consensus_validity_time": None,
            "consensus_validity_violations": 0,
            "consensus_agreement_ok": True,
            "consensus_agreement_time": None,
            "consensus_agreement_violations": 0,
            "consensus_termination_ok": True,
            "consensus_termination_time": 12.0,
            "consensus_termination_violations": 0,
        }

    def test_validity_kill_a_forged_unproposed_decision(self):
        # Everyone agrees, on a value no process of a spec run proposes.
        metrics = self._judge({p(0): ("not-proposed", 10.0), p(1): ("not-proposed", 10.0)})
        assert failed_checks(metrics) == ["consensus_validity"]

    def test_a_spec_naming_them_folds_them_after_the_record(self):
        spec = (
            scenario("checked")
            .homonyms([2, 2, 1])
            .detectors("HOmega", stabilization=10.0)
            .consensus("homega_majority")
            .check(*CONSENSUS_CHECKS)
            .build()
        )
        metrics = execute_spec(spec).metrics
        assert list(metrics)[:6] == [
            "decided", "safe", "decision_time", "rounds", "broadcasts", "message_copies",
        ]  # fmt: skip
        assert not failed_checks(metrics)
        assert metrics["consensus_termination_time"] == metrics["decision_time"]
        unchecked = ScenarioSpec.from_dict({**spec.to_dict(), "checks": []})
        assert execute_spec(unchecked).metrics == dict(list(metrics.items())[:6])

    @pytest.mark.parametrize("check", list(CONSENSUS_CHECKS))
    def test_a_run_without_consensus_cannot_name_them(self, check):
        # A program-only or KV trace records no decisions: the check would pass vacuously.
        program = scenario("program").processes(3).program("heartbeat")
        kv = scenario("kv").homonyms([2, 1]).detectors("HOmega").kv(clients=1)
        for builder in (program, kv):
            with pytest.raises(ScenarioValidationError, match=check):
                builder.check(check).build()


class TestStackedConsensus:
    """Figure 6 (HΩ implementation) running underneath Figure 8 consensus."""

    @staticmethod
    def stacked(gst: float = 15.0):
        # Links must stay reliable for the consensus layer (Figure 8 sends each
        # message once); before GST they may only be slow, not lossy.
        return (
            scenario("stacked")
            .timing(
                partial_sync(
                    gst=gst, delta=1.0, min_latency=0.1, pre_gst_loss=0.0,
                    pre_gst_max_latency=30.0,
                )
            )
            .program("ohp_polling", detector_name="HOmega", record_outputs=False)
            .consensus("homega_majority")
            .check(*CONSENSUS_CHECKS)
            .horizon(800.0)
            .seed(31)
        )

    def test_consensus_without_any_oracle(self):
        spec = self.stacked().homonyms([2, 2, 1]).crashes(crashes_at({1: 10.0})).build()
        assert not failed_checks(execute_spec(spec).metrics)

    def test_consensus_without_any_oracle_unique_ids(self):
        spec = self.stacked().processes(5).unique_ids().crashes(crashes_at({0: 20.0})).build()
        assert not failed_checks(execute_spec(spec).metrics)

    def test_decision_happens_after_gst(self):
        metrics = execute_spec(self.stacked(gst=25.0).homonyms([2, 1]).build()).metrics
        assert not failed_checks(metrics)
        assert metrics["decision_time"] > 0.0
