"""Adversarial and fault-injection tests.

Consensus safety (validity + agreement) must never depend on the failure
detector behaving well — only termination may.  These tests feed the
algorithms detectors that never stabilise within the run, or a history no
stabilised detector would say (spec data: ``history=`` on the oracle), and
also check that the checks actually catch broken *algorithms* and detectors
(so a regression in the real algorithms could not hide behind a permissive
harness).
"""

from __future__ import annotations

import json
from functools import partial

from repro.consensus import CONSENSUS_CHECKS, distinct_proposals
from repro.consensus.base import ConsensusProgram
from repro.detectors import CLASSES
from repro.membership import grouped_identities
from repro.runtime import (
    DETECTORS,
    ScenarioSpec,
    crashes_at,
    execute_spec,
    scenario,
)
from repro.sim import AsynchronousTiming, Simulation, build_system

from .helpers import failed_checks, run_probe_system

SAFETY = ("consensus_validity", "consensus_agreement")
HORIZON = 200.0
#: Just past the horizon: within the run the oracle never stabilises, and
#: HΩ's transient names any identifier with any multiplicity per window.
NEVER = HORIZON + 1.0


def empty_hsigma(n: int) -> dict:
    """An HΣ history that never offers a quorum: ``(∅, ∅)`` for everyone from t = 0."""
    return {str(index): [[0.0, [[], []]]] for index in range(n)}


def figure9_under_empty_hsigma(*, homega_stabilization: float, checks=SAFETY):
    return (
        scenario("figure9-empty-hsigma")
        .homonyms([2, 2])
        .detectors("HOmega", stabilization=homega_stabilization)
        .detectors("HSigma", stabilization=NEVER, history=empty_hsigma(4))
        .consensus("homega_hsigma")
        .check(*checks)
        .horizon(HORIZON)
    )


# ----------------------------------------------------------------------
# Broken detectors (safety of consensus must survive them)
# ----------------------------------------------------------------------
class TestConsensusSafetyUnderBrokenDetectors:
    def test_figure8_safe_with_never_stable_homega(self):
        spec = (
            scenario("figure8-never-stable")
            .homonyms([2, 2, 1])
            .detectors("HOmega", stabilization=NEVER)
            .consensus("homega_majority")
            .check(*SAFETY)
            .crashes(crashes_at({4: 10.0}))
            .horizon(HORIZON)
            .build()
        )
        for seed in (1, 2, 3, 4):
            # Termination is not guaranteed (the detector never stabilises),
            # but validity and agreement must hold in whatever was decided.
            assert not failed_checks(execute_spec(spec.with_seed(seed)).metrics), seed

    def test_figure9_safe_with_broken_detectors(self):
        spec = figure9_under_empty_hsigma(homega_stabilization=NEVER).build()
        for seed in (1, 2):
            assert not failed_checks(execute_spec(spec.with_seed(seed)).metrics), seed

    def test_figure9_with_empty_hsigma_never_decides(self):
        # With no quorums ever available and nobody else deciding, Phase 1 can
        # never complete: the algorithm must block rather than guess.  This is
        # the termination check's kill.
        spec = (
            figure9_under_empty_hsigma(homega_stabilization=5.0, checks=CONSENSUS_CHECKS)
            .seed(9)
            .build()
        )
        metrics = execute_spec(spec).metrics
        assert failed_checks(metrics) == ["consensus_termination"]
        assert (metrics["decided"], metrics["decision_time"]) == (False, None)
        assert metrics["consensus_termination_time"] is None

    def test_a_history_spec_is_json_and_reruns_to_its_digest(self):
        homega = {"0": [[0.0, ["grp1", 2]], [12.5, ["grp0", 5]]], "3": [[4.0, ["grp1", 1]]]}
        spec = (
            scenario("scripted")
            .homonyms([2, 2])
            .detectors("HOmega", stabilization=30.0, history=homega)
            .detectors("HSigma", stabilization=30.0, history=empty_hsigma(4))
            .consensus("homega_hsigma")
            .check(*CONSENSUS_CHECKS)
            .horizon(300.0)
            .build()
        )
        again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec and again.canonical_hash() == spec.canonical_hash()
        first, second = execute_spec(spec), execute_spec(again)
        assert first.digest == second.digest and first.metrics == second.metrics
        assert not failed_checks(first.metrics)
        assert first.metrics["decision_time"] > 30.0  # no quorum before HΣ stabilises


# ----------------------------------------------------------------------
# Broken algorithms and detectors (the checks must catch them)
# ----------------------------------------------------------------------
class SelfishConsensus(ConsensusProgram):
    """A broken 'consensus' that simply decides its own proposal immediately."""

    def run_round(self, ctx, round_number):
        self.decide(ctx, self.proposal)
        return
        yield  # pragma: no cover - keeps this a generator

    def _on_decide(self, ctx, message):
        # Deliberately ignore other decisions: a real algorithm must not.
        return


class TestChecksCatchBrokenAlgorithms:
    def test_selfish_consensus_breaks_agreement_and_is_caught(self):
        # Not a registered algorithm (the registry holds the consensus table
        # and nothing else), so the system is wired by hand — and judged by
        # the agreement check: this is its kill.
        membership = grouped_identities([2, 2, 1])
        proposals = distinct_proposals(membership)
        simulation = Simulation(
            build_system(
                membership=membership,
                timing=AsynchronousTiming(min_latency=0.1, max_latency=2.0),
                program_factory=lambda pid, identity: SelfishConsensus(proposals[pid]),
                detectors={"HOmega": partial(DETECTORS.resolve("HOmega"), stabilization_time=5.0)},
                seed=2,
            )
        )
        trace = simulation.run(until=HORIZON, stop_when=Simulation.all_correct_decided)
        pattern = simulation.failure_pattern
        verdicts = {name: check(trace, pattern).ok for name, check in CONSENSUS_CHECKS.items()}
        # Each decided value was proposed and everyone decided, but not the same.
        assert verdicts == {
            "consensus_validity": True,
            "consensus_agreement": False,
            "consensus_termination": True,
        }

    def test_broken_hsigma_history_is_caught_by_property_checker(self):
        # A history whose quorums are per-process singletons cannot satisfy
        # the HΣ safety property; the checker must flag it.
        membership = grouped_identities([2, 2])
        singletons = {}
        for process in membership.processes:
            label = f"self-{process.index}"
            quorum = [label, [membership.identity_of(process)]]
            singletons[str(process.index)] = [[0.0, [[quorum], [label]]]]
        simulation, trace = run_probe_system(
            membership,
            detectors={
                "HSigma": partial(
                    DETECTORS.resolve("HSigma"), stabilization_time=21.0, history=singletons
                )
            },
            probes=CLASSES["HSigma"].probes(),
            until=20.0,
            seed=1,
        )
        result = CLASSES["HSigma"].judge(trace, simulation.failure_pattern)
        assert not result.ok
        assert any("disjoint" in violation for violation in result.violations)
