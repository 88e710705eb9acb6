"""Tests for the Figure 9 consensus algorithm (HAS[HΩ, HΣ])."""

from __future__ import annotations

import pytest

from repro.consensus import HOmegaHSigmaConsensus, validate_consensus
from repro.detectors import CLASSES
from repro.identity import ProcessId
from repro.membership import (
    anonymous_identities,
    grouped_identities,
    unique_identities,
)
from repro.sim import AsynchronousTiming, CrashSchedule, Simulation, build_system
from repro.sim.failures import FailurePattern


def p(index: int) -> ProcessId:
    return ProcessId(index)


def run_consensus(
    membership,
    *,
    crashes=None,
    until=500.0,
    seed=23,
    stabilization=20.0,
    noise_period=5.0,
    proposals=None,
):
    proposals = proposals or {
        process: f"value-{process.index}" for process in membership.processes
    }
    schedule = CrashSchedule.at_times(crashes or {})
    detectors = {
        "HOmega": lambda services: CLASSES["HOmega"].oracle(
            services, stabilization_time=stabilization, noise_period=noise_period
        ),
        "HSigma": lambda services: CLASSES["HSigma"].oracle(
            services, stabilization_time=stabilization
        ),
    }
    system = build_system(
        membership=membership,
        timing=AsynchronousTiming(min_latency=0.1, max_latency=2.0),
        program_factory=lambda pid, identity: HOmegaHSigmaConsensus(proposals[pid]),
        crash_schedule=schedule,
        detectors=detectors,
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=until, stop_when=lambda sim: sim.all_correct_decided())
    return trace, FailurePattern(membership, schedule), proposals


class TestFigureNineCorrectness:
    @pytest.mark.parametrize(
        "membership_builder",
        [
            lambda: grouped_identities([2, 2, 1]),
            lambda: unique_identities(4),
            lambda: anonymous_identities(4),
        ],
    )
    def test_decides_across_homonymy_patterns(self, membership_builder):
        membership = membership_builder()
        trace, pattern, proposals = run_consensus(membership, crashes={p(1): 10.0})
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_no_crash(self):
        membership = grouped_identities([2, 2])
        trace, pattern, proposals = run_consensus(membership, stabilization=5.0)
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_majority_of_processes_crash(self):
        # Figure 9 does not need a majority of correct processes: 3 of 5 crash.
        membership = grouped_identities([3, 2])
        trace, pattern, proposals = run_consensus(
            membership,
            crashes={p(0): 8.0, p(1): 12.0, p(3): 16.0},
            until=700.0,
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_all_but_one_crash(self):
        membership = unique_identities(4)
        trace, pattern, proposals = run_consensus(
            membership,
            crashes={p(0): 6.0, p(1): 9.0, p(2): 12.0},
            until=700.0,
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_identical_proposals(self):
        membership = grouped_identities([2, 1])
        proposals = {process: "only-value" for process in membership.processes}
        trace, pattern, proposals = run_consensus(
            membership, proposals=proposals, stabilization=5.0
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations
        assert set(verdict.decided_values.values()) == {"only-value"}

    def test_multiple_seeds(self):
        membership = grouped_identities([2, 2, 1])
        for seed in (1, 2, 3):
            trace, pattern, proposals = run_consensus(
                membership, crashes={p(4): 11.0}, seed=seed
            )
            verdict = validate_consensus(trace, pattern, proposals)
            assert verdict.ok, (seed, verdict.violations)

    def test_decided_value_is_a_proposal(self):
        membership = grouped_identities([3, 1])
        trace, pattern, proposals = run_consensus(membership, crashes={p(0): 10.0})
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations
        assert set(verdict.decided_values.values()) <= set(proposals.values())

    def test_stable_detectors_decide_quickly(self):
        membership = grouped_identities([2, 1])
        trace, pattern, proposals = run_consensus(
            membership, stabilization=0.0, noise_period=None
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations
        assert verdict.max_decision_round is not None
        assert verdict.max_decision_round <= 2
