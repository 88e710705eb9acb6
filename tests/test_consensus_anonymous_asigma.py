"""Tests for the anonymous AΩ + AΣ consensus variant (§5.3 closing remark)."""

from __future__ import annotations

import pytest

from repro.consensus import AnonymousAOmegaASigmaConsensus, validate_consensus
from repro.detectors import CLASSES
from repro.identity import ProcessId
from repro.membership import anonymous_identities
from repro.sim import AsynchronousTiming, CrashSchedule, Simulation, build_system
from repro.sim.failures import FailurePattern


def p(index: int) -> ProcessId:
    return ProcessId(index)


def run_anonymous_consensus(n=5, *, crashes=None, seed=41, stabilization=20.0, until=500.0):
    membership = anonymous_identities(n)
    proposals = {process: f"value-{process.index}" for process in membership.processes}
    schedule = CrashSchedule.at_times(crashes or {})
    detectors = {
        "AOmega": lambda services: CLASSES["AOmega"].oracle(
            services, stabilization_time=stabilization, noise_period=5.0
        ),
        "ASigma": lambda services: CLASSES["ASigma"].oracle(
            services, stabilization_time=stabilization
        ),
    }
    system = build_system(
        membership=membership,
        timing=AsynchronousTiming(min_latency=0.1, max_latency=2.0),
        program_factory=lambda pid, identity: AnonymousAOmegaASigmaConsensus(proposals[pid]),
        crash_schedule=schedule,
        detectors=detectors,
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=until, stop_when=lambda sim: sim.all_correct_decided())
    return trace, FailurePattern(membership, schedule), proposals


class TestAnonymousAOmegaASigma:
    def test_no_crash(self):
        trace, pattern, proposals = run_anonymous_consensus()
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_single_crash(self):
        trace, pattern, proposals = run_anonymous_consensus(crashes={p(2): 10.0})
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_minority_correct(self):
        # AΩ + AΣ tolerates any number of crashes, like Figure 9.
        trace, pattern, proposals = run_anonymous_consensus(
            crashes={p(1): 8.0, p(2): 12.0, p(3): 16.0}, until=700.0
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_multiple_seeds(self):
        for seed in (1, 2, 3):
            trace, pattern, proposals = run_anonymous_consensus(
                crashes={p(4): 9.0}, seed=seed
            )
            verdict = validate_consensus(trace, pattern, proposals)
            assert verdict.ok, (seed, verdict.violations)

    def test_decided_value_is_a_proposal(self):
        trace, pattern, proposals = run_anonymous_consensus(crashes={p(0): 10.0})
        verdict = validate_consensus(trace, pattern, proposals)
        assert set(verdict.decided_values.values()) <= set(proposals.values())

    def test_describe(self):
        program = AnonymousAOmegaASigmaConsensus("v")
        assert "AΩ" in program.describe() or "anonymous" in program.describe()
