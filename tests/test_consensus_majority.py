"""Tests for the Figure 8 consensus algorithm (HAS[t < n/2, HΩ]) and its baselines."""

from __future__ import annotations

import pytest

from repro.consensus import (
    AnonymousAOmegaConsensus,
    ClassicalOmegaConsensus,
    HOmegaMajorityConsensus,
    NoCoordinationConsensus,
    validate_consensus,
)
from repro.detectors import CLASSES
from repro.errors import ConfigurationError
from repro.identity import ProcessId
from repro.membership import (
    anonymous_identities,
    grouped_identities,
    unique_identities,
)
from repro.sim import (
    AsynchronousTiming,
    CrashEvent,
    CrashSchedule,
    Simulation,
    build_system,
)
from repro.sim.failures import FailurePattern


def p(index: int) -> ProcessId:
    return ProcessId(index)


def run_consensus(
    membership,
    program_factory,
    detectors,
    *,
    crashes=None,
    crash_schedule=None,
    until=400.0,
    seed=17,
):
    schedule = crash_schedule or CrashSchedule.at_times(crashes or {})
    system = build_system(
        membership=membership,
        timing=AsynchronousTiming(min_latency=0.1, max_latency=2.0),
        program_factory=program_factory,
        crash_schedule=schedule,
        detectors=detectors,
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=until, stop_when=lambda sim: sim.all_correct_decided())
    return trace, FailurePattern(membership, schedule)


def distinct_proposals(membership):
    return {process: f"value-{process.index}" for process in membership.processes}


def homega_oracle(stabilization=20.0, noise_period=5.0):
    return {
        "HOmega": lambda services: CLASSES["HOmega"].oracle(
            services, stabilization_time=stabilization, noise_period=noise_period
        )
    }


class TestFigureEightCorrectness:
    @pytest.mark.parametrize(
        "membership_builder",
        [
            lambda: grouped_identities([2, 2, 1]),
            lambda: unique_identities(5),
            lambda: anonymous_identities(5),
            lambda: grouped_identities([3, 2]),
        ],
    )
    def test_decides_correctly_across_homonymy_patterns(self, membership_builder):
        membership = membership_builder()
        proposals = distinct_proposals(membership)
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: HOmegaMajorityConsensus(proposals[pid], n=membership.size),
            homega_oracle(),
            crashes={p(1): 10.0},
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_no_crash_run(self):
        membership = grouped_identities([2, 2])
        proposals = distinct_proposals(membership)
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: HOmegaMajorityConsensus(proposals[pid], n=membership.size),
            homega_oracle(stabilization=5.0),
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_maximum_minority_of_crashes(self):
        membership = grouped_identities([3, 2, 2])  # n = 7, t = 3
        proposals = distinct_proposals(membership)
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: HOmegaMajorityConsensus(proposals[pid], n=7, t=3),
            homega_oracle(),
            crashes={p(0): 8.0, p(3): 12.0, p(5): 16.0},
            until=600.0,
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_crash_during_broadcast(self):
        membership = grouped_identities([2, 2, 1])
        proposals = distinct_proposals(membership)
        schedule = CrashSchedule((CrashEvent(p(0), 6.0, partial_broadcast_fraction=0.4),))
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: HOmegaMajorityConsensus(proposals[pid], n=membership.size),
            homega_oracle(),
            crash_schedule=schedule,
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_identical_proposals_decide_that_value(self):
        membership = grouped_identities([2, 1])
        proposals = {process: "the-value" for process in membership.processes}
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: HOmegaMajorityConsensus("the-value", n=membership.size),
            homega_oracle(stabilization=5.0),
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations
        assert set(verdict.decided_values.values()) == {"the-value"}

    def test_decision_value_is_a_proposal(self):
        membership = grouped_identities([2, 2, 1])
        proposals = distinct_proposals(membership)
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: HOmegaMajorityConsensus(proposals[pid], n=membership.size),
            homega_oracle(),
            crashes={p(4): 9.0},
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations
        decided = set(verdict.decided_values.values())
        assert len(decided) == 1
        assert decided <= set(proposals.values())

    def test_different_seeds_all_correct(self):
        membership = grouped_identities([2, 2, 1])
        proposals = distinct_proposals(membership)
        for seed in (1, 2, 3, 4, 5):
            trace, pattern = run_consensus(
                membership,
                lambda pid, identity: HOmegaMajorityConsensus(proposals[pid], n=membership.size),
                homega_oracle(),
                crashes={p(2): 12.0},
                seed=seed,
            )
            verdict = validate_consensus(trace, pattern, proposals)
            assert verdict.ok, (seed, verdict.violations)

    def test_immediately_stable_detector_fast_decision(self):
        membership = grouped_identities([2, 1])
        proposals = distinct_proposals(membership)
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: HOmegaMajorityConsensus(proposals[pid], n=membership.size),
            homega_oracle(stabilization=0.0, noise_period=None),
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations
        assert verdict.max_decision_round is not None
        assert verdict.max_decision_round <= 2


class TestFigureEightValidation:
    def test_rejects_t_at_least_half(self):
        with pytest.raises(ConfigurationError):
            HOmegaMajorityConsensus("v", n=4, t=2)

    def test_rejects_non_positive_n(self):
        with pytest.raises(ConfigurationError):
            HOmegaMajorityConsensus("v", n=0)

    def test_default_t_is_largest_minority(self):
        assert HOmegaMajorityConsensus("v", n=5).quorum.t == 2
        assert HOmegaMajorityConsensus("v", n=4).quorum.t == 1


class TestBaselines:
    def test_classical_omega_consensus_on_unique_ids(self):
        membership = unique_identities(5)
        proposals = distinct_proposals(membership)
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: ClassicalOmegaConsensus(proposals[pid], n=5),
            {"Omega": lambda s: CLASSES["Omega"].oracle(s, stabilization_time=15.0)},
            crashes={p(1): 10.0, p(3): 14.0},
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_anonymous_aomega_consensus(self):
        membership = anonymous_identities(5)
        proposals = distinct_proposals(membership)
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: AnonymousAOmegaConsensus(proposals[pid], n=5),
            {"AOmega": lambda s: CLASSES["AOmega"].oracle(s, stabilization_time=15.0)},
            crashes={p(2): 10.0},
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations


class TestNoCoordinationAblation:
    def test_safety_is_preserved_even_without_coordination(self):
        # Removing the Leaders' Coordination Phase may cost termination, but
        # validity and agreement must still hold in every run that decides.
        membership = grouped_identities([3, 2])
        proposals = distinct_proposals(membership)
        for seed in (1, 2, 3):
            trace, pattern = run_consensus(
                membership,
                lambda pid, identity: NoCoordinationConsensus(proposals[pid], n=membership.size),
                homega_oracle(stabilization=10.0),
                crashes={p(3): 8.0},
                seed=seed,
                until=250.0,
            )
            verdict = validate_consensus(trace, pattern, proposals, require_termination=False)
            assert verdict.validity_ok and verdict.agreement_ok, verdict.violations

    def test_full_algorithm_describes_itself_differently(self):
        full = HOmegaMajorityConsensus("v", n=3)
        ablated = NoCoordinationConsensus("v", n=3)
        assert full.use_coordination_phase
        assert not ablated.use_coordination_phase
        assert full.describe() != ablated.describe()
