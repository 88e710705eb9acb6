"""Tests for the failure-detector reductions (Section 3.3 of the paper)."""

from __future__ import annotations

import pytest

from repro.detectors import CLASSES, DetectorClass
from repro.errors import ReductionError
from repro.identity import ProcessId
from repro.membership import anonymous_identities, grouped_identities, unique_identities
from repro.reductions import (
    APToDiamondHP,
    APToHSigma,
    ASigmaToHSigma,
    DiamondHPToHOmega,
    HSigmaToSigma,
    SigmaToHSigmaUnknownMembership,
    SigmaToHSigmaWithMembership,
    equivalent_classes,
    is_stronger,
    paper_relations,
)
from repro.sim import AsynchronousTiming, CrashSchedule, Simulation, build_system
from repro.sim.failures import FailurePattern


def p(index: int) -> ProcessId:
    return ProcessId(index)


def run_reduction(
    membership,
    program_factory,
    detectors,
    *,
    crashes=None,
    until=80.0,
    seed=21,
    stabilization=15.0,
):
    schedule = CrashSchedule.at_times(crashes or {})
    system = build_system(
        membership=membership,
        timing=AsynchronousTiming(min_latency=0.1, max_latency=1.5),
        program_factory=program_factory,
        crash_schedule=schedule,
        detectors=detectors,
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=until)
    return trace, FailurePattern(membership, schedule)


CRASH = {p(1): 10.0}


class TestSigmaToHSigma:
    def test_figure1_with_membership_knowledge(self):
        membership = unique_identities(4)
        identities = membership.identity_multiset()
        trace, pattern = run_reduction(
            membership,
            lambda pid, identity: SigmaToHSigmaWithMembership(identities, period=1.0),
            {"Sigma": lambda s: CLASSES["Sigma"].oracle(s, stabilization_time=15.0)},
            crashes=CRASH,
        )
        result = CLASSES["HSigma"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_figure2_without_membership_knowledge(self):
        membership = unique_identities(4)
        trace, pattern = run_reduction(
            membership,
            lambda pid, identity: SigmaToHSigmaUnknownMembership(period=1.0),
            {"Sigma": lambda s: CLASSES["Sigma"].oracle(s, stabilization_time=15.0)},
            crashes=CRASH,
        )
        result = CLASSES["HSigma"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_figure1_rejects_homonymous_membership(self, paper_example_membership):
        with pytest.raises(ReductionError):
            SigmaToHSigmaWithMembership(paper_example_membership.identity_multiset())


class TestHSigmaToSigma:
    def test_emulated_sigma_satisfies_class_properties(self):
        membership = unique_identities(4)
        trace, pattern = run_reduction(
            membership,
            lambda pid, identity: HSigmaToSigma(period=1.0),
            {
                "HSigma": lambda s: CLASSES["HSigma"].oracle(s, stabilization_time=15.0),
                "ScriptE": lambda s: CLASSES["ScriptE"].oracle(s, stabilization_time=15.0),
            },
            crashes=CRASH,
            until=100.0,
        )
        result = CLASSES["Sigma"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_more_failures_than_majority(self):
        # Σ emulated from HΣ works regardless of the number of crashes.
        membership = unique_identities(5)
        trace, pattern = run_reduction(
            membership,
            lambda pid, identity: HSigmaToSigma(period=1.0),
            {
                "HSigma": lambda s: CLASSES["HSigma"].oracle(s, stabilization_time=20.0),
                "ScriptE": lambda s: CLASSES["ScriptE"].oracle(s, stabilization_time=20.0),
            },
            crashes={p(1): 8.0, p(2): 10.0, p(3): 12.0},
            until=120.0,
        )
        result = CLASSES["Sigma"].judge(trace, pattern)
        assert result.ok, result.violations


class TestAnonymousReductions:
    def test_asigma_to_hsigma(self):
        membership = anonymous_identities(4)
        trace, pattern = run_reduction(
            membership,
            lambda pid, identity: ASigmaToHSigma(period=1.0),
            {"ASigma": lambda s: CLASSES["ASigma"].oracle(s, stabilization_time=15.0)},
            crashes=CRASH,
        )
        result = CLASSES["HSigma"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_ap_to_diamond_hp(self):
        membership = anonymous_identities(5)
        trace, pattern = run_reduction(
            membership,
            lambda pid, identity: APToDiamondHP(period=1.0),
            {"AP": lambda s: CLASSES["AP"].oracle(s, stabilization_time=15.0)},
            crashes={p(1): 10.0, p(3): 12.0},
        )
        result = CLASSES["DiamondHP"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_ap_to_hsigma(self):
        membership = anonymous_identities(4)
        trace, pattern = run_reduction(
            membership,
            lambda pid, identity: APToHSigma(period=1.0),
            {"AP": lambda s: CLASSES["AP"].oracle(s, stabilization_time=15.0)},
            crashes=CRASH,
        )
        result = CLASSES["HSigma"].judge(trace, pattern)
        assert result.ok, result.violations


class TestObservationOne:
    def test_homega_from_diamond_hp(self):
        membership = grouped_identities([2, 2, 1])
        trace, pattern = run_reduction(
            membership,
            lambda pid, identity: DiamondHPToHOmega(period=1.0),
            {"DiamondHP": lambda s: CLASSES["DiamondHP"].oracle(s, stabilization_time=15.0)},
            crashes=CRASH,
        )
        result = CLASSES["HOmega"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_homega_from_ap_chain_in_anonymous_system(self):
        # AP → ◇HP (Lemma 2) composed with ◇HP → HΩ (Observation 1): the
        # emulated ◇HP is exposed under a detector name consumed by the second
        # reduction on the same process.
        from repro.sim import CompositeProgram

        membership = anonymous_identities(4)

        def factory(pid, identity):
            first = APToDiamondHP(period=1.0, emulated_name="EmulatedDiamondHP",
                                  record_outputs=False)
            second = DiamondHPToHOmega(period=1.0, source_detector="EmulatedDiamondHP")
            return CompositeProgram(first, second)

        trace, pattern = run_reduction(
            membership,
            factory,
            {"AP": lambda s: CLASSES["AP"].oracle(s, stabilization_time=15.0)},
            crashes=CRASH,
        )
        result = CLASSES["HOmega"].judge(trace, pattern)
        assert result.ok, result.violations


class TestRegistry:
    def test_every_paper_relation_has_model_and_source(self):
        for relation in paper_relations():
            assert relation.model
            assert relation.established_by

    def test_corollary_1_equivalence_in_as(self):
        groups = equivalent_classes(model="AS")
        sigma_group = next(
            group for group in groups if DetectorClass.SIGMA in group
        )
        assert DetectorClass.H_SIGMA in sigma_group
        assert DetectorClass.A_SIGMA in sigma_group

    def test_ap_reaches_homega_in_anonymous_model(self):
        assert is_stronger(DetectorClass.AP, DetectorClass.H_OMEGA, model="AAS")
        assert is_stronger(DetectorClass.AP, DetectorClass.H_SIGMA, model="AAS")

    def test_homega_not_obtainable_from_asigma_in_anonymous_model(self):
        assert not is_stronger(DetectorClass.A_SIGMA, DetectorClass.H_OMEGA, model="AAS")

    def test_reflexivity(self):
        assert is_stronger(DetectorClass.H_OMEGA, DetectorClass.H_OMEGA)

    def test_relations_join_classes_of_the_table(self):
        symbols = {row.cls for row in CLASSES.values()}
        assert symbols == set(DetectorClass)
        for relation in paper_relations():
            assert {relation.source, relation.target} <= symbols

    def test_model_restriction_drops_edges(self):
        # Σ → AΣ is an AS relation: it holds unrestricted and in AS, not in AAS,
        # while Observation 1 (tagged "any") survives every restriction.
        assert is_stronger(DetectorClass.SIGMA, DetectorClass.A_SIGMA)
        assert is_stronger(DetectorClass.SIGMA, DetectorClass.A_SIGMA, model="AS")
        assert not is_stronger(DetectorClass.SIGMA, DetectorClass.A_SIGMA, model="AAS")
        assert is_stronger(DetectorClass.DIAMOND_HP, DetectorClass.H_OMEGA, model="AAS")

    def test_implemented_relations_hold_their_program(self):
        import repro.reductions as reductions_module
        from repro.reductions.base import PeriodicReductionProgram

        implemented = [r.implemented_by for r in paper_relations() if r.implemented_by]
        assert len(implemented) == 6
        for program in implemented:
            assert issubclass(program, PeriodicReductionProgram)
            assert getattr(reductions_module, program.__name__) is program
