"""Edge-case tests: minimal systems, unusual proposal types, non-default wiring."""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest

from repro.algorithms import HSigmaSynchronousProgram, OhpPollingProgram
from repro.analysis import consensus_metrics
from repro.consensus import (
    CONSENSUS_CHECKS,
    HOmegaMajorityConsensus,
    distinct_proposals,
    validate_consensus,
)
from repro.consensus.rules import H_OMEGA
from repro.detectors import CLASSES
from repro.identity import ProcessId
from repro.membership import Membership, unique_identities
from repro.runtime import (
    CONSENSUS,
    DETECTORS,
    asynchronous,
    crashes_at,
    execute_spec,
    minority,
    scenario,
)
from repro.sim import (
    AsynchronousTiming,
    CrashSchedule,
    PartiallySynchronousTiming,
    Simulation,
    SynchronousTiming,
    build_system,
)
from repro.sim.failures import FailurePattern

from .helpers import failed_checks

H_QUORA, _ = CLASSES["HSigma"].keys


def p(index: int) -> ProcessId:
    return ProcessId(index)


def checked(name: str):
    """A scenario under the three consensus checks, on this file's timing and seed."""
    return (
        scenario(name)
        .timing(asynchronous(max_latency=1.5))
        .check(*CONSENSUS_CHECKS)
        .horizon(400.0)
        .seed(51)
    )


class TestMinimalSystems:
    def test_figure8_three_processes_one_crash(self):
        spec = (
            checked("figure8-n3")
            .identities(["A", "A", "B"])
            .detectors("HOmega", stabilization=10.0, noise_period=None)
            .consensus("homega_majority", t=1)
            .crashes(crashes_at({2: 8.0}))
            .build()
        )
        assert not failed_checks(execute_spec(spec).metrics)

    def test_figure8_single_process_system(self):
        spec = (
            checked("figure8-n1")
            .processes(1)
            .unique_ids()
            .detectors("HOmega", stabilization=1.0, noise_period=None)
            .consensus("homega_majority", t=0)
            .build()
        )
        metrics = execute_spec(spec).metrics
        assert not failed_checks(metrics) and metrics["decided"]

    def test_figure9_two_processes_one_crash(self):
        spec = (
            checked("figure9-n2")
            .processes(2)
            .anonymous()
            .detectors("HOmega", "HSigma", stabilization=10.0, noise_period=None)
            .consensus("homega_hsigma")
            .crashes(crashes_at({1: 6.0}))
            .horizon(300.0)
            .build()
        )
        assert not failed_checks(execute_spec(spec).metrics)

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
    """A spec run proposes ``value-<index>``; these proposal sets are wired by hand."""

    @pytest.mark.parametrize("row", ["homega_majority", "homega_hsigma"])
    @pytest.mark.parametrize(
        "values",
        [
            [1, 2, 3, 4],
            [(1, "a"), (2, "b"), (1, "a"), (3, "c")],
            ["same"] * 4,
        ],
    )
    def test_non_string_and_identical_proposals(self, row, values):
        membership = Membership.of(["A", "A", "B", "C"])
        proposals = {p(i): values[i] for i in range(4)}
        entry = CONSENSUS.resolve(row)
        propose = entry.factory(membership)
        simulation = Simulation(
            build_system(
                membership=membership,
                timing=AsynchronousTiming(min_latency=0.1, max_latency=1.5),
                program_factory=lambda pid, identity: propose(proposals[pid]),
                crash_schedule=CrashSchedule.at_times({p(3): 7.0}),
                detectors={
                    name: partial(DETECTORS.resolve(name), stabilization_time=10.0)
                    for name in entry.requires_detectors
                },
                seed=51,
            )
        )
        trace = simulation.run(until=400.0, stop_when=Simulation.all_correct_decided)
        verdict = validate_consensus(trace, simulation.failure_pattern, proposals)
        assert verdict.ok, verdict.violations
        assert set(verdict.decided_values.values()) <= set(values)


class TestNonDefaultWiring:
    def test_figure8_with_renamed_detector(self):
        # Which attachment a row queries is part of its leader rule, so a
        # differently-wired system declares a row rather than passing a keyword.
        class RewiredFigure8(HOmegaMajorityConsensus):
            leader_rule = dataclasses.replace(
                H_OMEGA, detector=dataclasses.replace(CLASSES["HOmega"], name="leader-oracle")
            )

        assert RewiredFigure8.requirements()["requires_detectors"] == ("leader-oracle",)
        membership = Membership.of(["A", "B", "B"])
        proposals = {process: process.index for process in membership.processes}
        simulation = Simulation(
            build_system(
                membership=membership,
                timing=AsynchronousTiming(min_latency=0.1, max_latency=1.5),
                program_factory=lambda pid, identity: RewiredFigure8(proposals[pid], n=3),
                detectors={
                    "leader-oracle": lambda s: CLASSES["HOmega"].oracle(s, stabilization_time=5.0)
                },
                seed=51,
            )
        )
        trace = simulation.run(until=400.0, stop_when=Simulation.all_correct_decided)
        verdict = validate_consensus(trace, simulation.failure_pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_consensus_without_trace_recording_still_decides(self):
        # ``record_outputs`` is the factory's, as the KV runner passes it: a
        # spec's consensus parameters are the quorum rule's only.
        membership = Membership.of(["A", "A", "B"])
        proposals = distinct_proposals(membership)
        propose = CONSENSUS.resolve("homega_majority").factory(membership, record_outputs=False)
        simulation = Simulation(
            build_system(
                membership=membership,
                timing=AsynchronousTiming(max_latency=1.5),
                program_factory=lambda pid, identity: propose(proposals[pid]),
                detectors={"HOmega": partial(DETECTORS.resolve("HOmega"), stabilization_time=5.0)},
                seed=51,
            )
        )
        trace = simulation.run(until=400.0, stop_when=Simulation.all_correct_decided)
        # Decisions are still traced (ctx.decide), only auxiliary keys are not.
        metrics = consensus_metrics(trace, simulation.failure_pattern)
        assert metrics["decided"] and metrics["safe"] and metrics["rounds"] is None

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
        schedule = minority(count=0).build(membership)
        assert schedule.faulty == frozenset()

    def test_minority_crashes_rejects_all_processes(self):
        from repro.errors import ConfigurationError

        membership = unique_identities(3)
        with pytest.raises(ConfigurationError):
            minority(count=3).build(membership)
