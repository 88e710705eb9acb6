"""Edge-case tests: minimal systems, unusual proposal types, non-default wiring."""

from __future__ import annotations

import dataclasses

import pytest

from repro.algorithms import HSigmaSynchronousProgram, OhpPollingProgram
from repro.consensus import (
    HOmegaHSigmaConsensus,
    HOmegaMajorityConsensus,
    validate_consensus,
)
from repro.consensus.rules import H_OMEGA
from repro.detectors import CLASSES
from repro.identity import ProcessId
from repro.membership import Membership, anonymous_identities, unique_identities
from repro.sim import (
    AsynchronousTiming,
    CrashSchedule,
    PartiallySynchronousTiming,
    Simulation,
    SynchronousTiming,
    build_system,
)
from repro.sim.failures import FailurePattern
from repro.workloads import minority_crashes

H_QUORA, _ = CLASSES["HSigma"].keys


def p(index: int) -> ProcessId:
    return ProcessId(index)


def run_consensus(membership, factory, detectors, *, crashes=None, seed=51, until=400.0):
    schedule = CrashSchedule.at_times(crashes or {})
    system = build_system(
        membership=membership,
        timing=AsynchronousTiming(min_latency=0.1, max_latency=1.5),
        program_factory=factory,
        crash_schedule=schedule,
        detectors=detectors,
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=until, stop_when=lambda sim: sim.all_correct_decided())
    return trace, FailurePattern(membership, schedule)


class TestMinimalSystems:
    def test_figure8_three_processes_one_crash(self):
        membership = Membership.of(["A", "A", "B"])
        proposals = {p(0): 10, p(1): 20, p(2): 30}
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: HOmegaMajorityConsensus(proposals[pid], n=3, t=1),
            {"HOmega": lambda s: CLASSES["HOmega"].oracle(s, stabilization_time=10.0)},
            crashes={p(2): 8.0},
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_figure8_single_process_system(self):
        membership = unique_identities(1)
        proposals = {p(0): "only"}
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: HOmegaMajorityConsensus("only", n=1, t=0),
            {"HOmega": lambda s: CLASSES["HOmega"].oracle(s, stabilization_time=1.0)},
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations
        assert verdict.decided_values[p(0)] == "only"

    def test_figure9_two_processes_one_crash(self):
        membership = anonymous_identities(2)
        proposals = {p(0): ("tuple", 1), p(1): ("tuple", 2)}
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: HOmegaHSigmaConsensus(proposals[pid]),
            {
                "HOmega": lambda s: CLASSES["HOmega"].oracle(s, stabilization_time=10.0),
                "HSigma": lambda s: CLASSES["HSigma"].oracle(s, stabilization_time=10.0),
            },
            crashes={p(1): 6.0},
            until=300.0,
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_ohp_polling_single_process(self):
        membership = unique_identities(1)
        system = build_system(
            membership=membership,
            timing=PartiallySynchronousTiming(gst=5.0, delta=1.0),
            program_factory=lambda pid, identity: OhpPollingProgram(),
            seed=3,
        )
        trace = Simulation(system).run(until=60.0)
        pattern = FailurePattern(membership, CrashSchedule.none())
        assert CLASSES["DiamondHP"].judge(trace, pattern).ok


class TestProposalTypes:
    @pytest.mark.parametrize(
        "values",
        [
            [1, 2, 3, 4],
            [(1, "a"), (2, "b"), (1, "a"), (3, "c")],
            ["same"] * 4,
        ],
    )
    def test_figure8_with_non_string_proposals(self, values):
        membership = Membership.of(["A", "A", "B", "C"])
        proposals = {p(i): values[i] for i in range(4)}
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: HOmegaMajorityConsensus(proposals[pid], n=4),
            {"HOmega": lambda s: CLASSES["HOmega"].oracle(s, stabilization_time=10.0)},
            crashes={p(3): 7.0},
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations


class TestNonDefaultWiring:
    def test_figure8_with_renamed_detector(self):
        # Which attachment a row queries is part of its leader rule, so a
        # differently-wired system declares a row rather than passing a keyword.
        class RewiredFigure8(HOmegaMajorityConsensus):
            leader_rule = dataclasses.replace(H_OMEGA, detector="leader-oracle")

        assert RewiredFigure8.requirements()["requires_detectors"] == ("leader-oracle",)
        membership = Membership.of(["A", "B", "B"])
        proposals = {process: process.index for process in membership.processes}
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: RewiredFigure8(proposals[pid], n=3),
            {"leader-oracle": lambda s: CLASSES["HOmega"].oracle(s, stabilization_time=5.0)},
        )
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_consensus_without_trace_recording_still_decides(self):
        membership = Membership.of(["A", "A", "B"])
        proposals = {process: "v" for process in membership.processes}
        trace, pattern = run_consensus(
            membership,
            lambda pid, identity: HOmegaMajorityConsensus(
                "v", n=3, record_outputs=False
            ),
            {"HOmega": lambda s: CLASSES["HOmega"].oracle(s, stabilization_time=5.0)},
        )
        verdict = validate_consensus(trace, pattern, proposals)
        # Decisions are still traced (ctx.decide), only auxiliary keys are not.
        assert verdict.validity_ok and verdict.agreement_ok and verdict.termination_ok
        assert verdict.max_decision_round is None

    def test_hsigma_program_runs_forever_until_horizon(self):
        membership = Membership.of(["A", "A"])
        system = build_system(
            membership=membership,
            timing=SynchronousTiming(step=1.0),
            program_factory=lambda pid, identity: HSigmaSynchronousProgram(steps=None),
            seed=2,
        )
        trace = Simulation(system).run(until=12.0)
        pattern = FailurePattern(membership, CrashSchedule.none())
        assert CLASSES["HSigma"].judge(trace, pattern).ok
        # One record per completed step, for each of the two processes.
        assert len(trace.records_of(p(0), H_QUORA)) >= 10


class TestWorkloadEdges:
    def test_minority_crashes_with_zero_count(self):
        membership = unique_identities(4)
        schedule = minority_crashes(membership, count=0)
        assert schedule.faulty == frozenset()

    def test_minority_crashes_rejects_all_processes(self):
        from repro.errors import ConfigurationError

        membership = unique_identities(3)
        with pytest.raises(ConfigurationError):
            minority_crashes(membership, count=3)
