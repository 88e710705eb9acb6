"""Tests for the failure-detector reductions (Section 3.3 of the paper).

A reduction is a row of ``repro.reductions.REDUCTIONS`` run by the one
``ReductionProgram``; a run of it is a ``ScenarioSpec`` naming the row.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.detectors import CLASSES, DetectorClass
from repro.errors import ConfigurationError, ReductionError
from repro.experiments import ALL_EXPERIMENTS
from repro.membership import anonymous_identities, unique_identities
from repro.reductions import (
    ANY_MODEL,
    REDUCTIONS,
    Reduction,
    ReductionProgram,
    equivalent_classes,
    is_stronger,
    paper_relations,
)
from repro.runtime import (
    PROGRAMS,
    Engine,
    asynchronous,
    crashes_at,
    register_reduction,
    scenario,
    simulate_spec,
)
from repro.sim import (
    AsynchronousTiming,
    CompositeProgram,
    CrashSchedule,
    ProcessProgram,
    Simulation,
    build_system,
)

CRASH = {1: 10.0}


def run_reduction(name, system, *, crashes=CRASH, until=80.0, seed=21, stabilization=15.0, **params):
    """Reduction ``name`` over its source classes' oracles on ``system`` (a
    builder with its membership set): the finished simulation."""
    row = REDUCTIONS[name]
    spec = (
        system.timing(asynchronous(max_latency=1.5))
        .crashes(crashes_at(crashes))
        .detectors(*row.sources, stabilization=stabilization)
        .program(name, **params)
        .check(CLASSES[row.target].check)
        .horizon(until)
        .seed(seed)
        .build()
    )
    return simulate_spec(spec)


def judged(name, simulation):
    return CLASSES[REDUCTIONS[name].target].judge(simulation.trace, simulation.failure_pattern)


def unique(n):
    return scenario().processes(n).unique_ids()


def anonymous(n):
    return scenario().processes(n).anonymous()


class TestSigmaToHSigma:
    def test_figure1_with_membership_knowledge(self):
        known = [f"id{index}" for index in range(4)]
        simulation = run_reduction("sigma_to_hsigma_known", unique(4), membership=known)
        result = judged("sigma_to_hsigma_known", simulation)
        assert result.ok, result.violations

    def test_figure2_without_membership_knowledge(self):
        result = judged("sigma_to_hsigma", run_reduction("sigma_to_hsigma", unique(4)))
        assert result.ok, result.violations

    def test_figure1_rejects_homonymous_membership(self):
        with pytest.raises(ReductionError, match="unique identifiers"):
            run_reduction("sigma_to_hsigma_known", unique(3), membership=["A", "A", "B"])

    def test_figure1_must_be_told_the_membership(self):
        with pytest.raises(ReductionError, match="membership="):
            run_reduction("sigma_to_hsigma_known", unique(3))


class TestHSigmaToSigma:
    def test_emulated_sigma_satisfies_class_properties(self):
        result = judged("hsigma_to_sigma", run_reduction("hsigma_to_sigma", unique(4), until=100.0))
        assert result.ok, result.violations

    def test_more_failures_than_majority(self):
        # Σ emulated from HΣ works regardless of the number of crashes.
        simulation = run_reduction(
            "hsigma_to_sigma",
            unique(5),
            crashes={1: 8.0, 2: 10.0, 3: 12.0},
            stabilization=20.0,
            until=120.0,
        )
        result = judged("hsigma_to_sigma", simulation)
        assert result.ok, result.violations

    def test_rank_is_the_first_position_from_one_and_inf_when_absent(self):
        from repro.reductions.table import _rank

        alive = ("b", "a", "b", "c")
        assert [_rank(alive, i) for i in "bac"] == [1, 2, 4]
        assert _rank(alive, "missing") == float("inf")
        assert _rank((), "b") == float("inf")


class TestAnonymousReductions:
    def test_asigma_to_hsigma(self):
        result = judged("asigma_to_hsigma", run_reduction("asigma_to_hsigma", anonymous(4)))
        assert result.ok, result.violations

    def test_ap_to_diamond_hp(self):
        simulation = run_reduction("ap_to_ohp", anonymous(5), crashes={1: 10.0, 3: 12.0})
        result = judged("ap_to_ohp", simulation)
        assert result.ok, result.violations

    def test_ap_to_hsigma(self):
        result = judged("ap_to_hsigma", run_reduction("ap_to_hsigma", anonymous(4)))
        assert result.ok, result.violations


class TestObservationOne:
    def test_homega_from_diamond_hp(self):
        system = scenario().homonyms([2, 2, 1])
        result = judged("ohp_to_homega", run_reduction("ohp_to_homega", system))
        assert result.ok, result.violations

    @pytest.mark.parametrize("max_step", [0.0, 0.5])
    def test_homega_from_ap_chain_in_anonymous_system(self, max_step):
        # AP → ◇HP (Lemma 2) composed with ◇HP → HΩ (Observation 1): the
        # emulated ◇HP is exposed under a detector name consumed by the second
        # reduction on the same process.  With random step delays the consumer's
        # loop may run first, and reads the emulation's initial (empty) value.
        membership = anonymous_identities(4)

        def factory(pid, identity):
            first = ReductionProgram(
                REDUCTIONS["ap_to_ohp"], detector_name="EmulatedDiamondHP", record_outputs=False
            )
            second = ReductionProgram(REDUCTIONS["ohp_to_homega"], sources=("EmulatedDiamondHP",))
            return CompositeProgram(first, second)

        simulation = Simulation(
            build_system(
                membership=membership,
                timing=AsynchronousTiming(min_latency=0.1, max_latency=1.5, max_step=max_step),
                program_factory=factory,
                crash_schedule=CrashSchedule.at_times({membership.processes[1]: 10.0}),
                detectors={"AP": lambda s: CLASSES["AP"].oracle(s, stabilization_time=15.0)},
                seed=21,
            )
        )
        trace = simulation.run(until=80.0)
        result = CLASSES["HOmega"].judge(trace, simulation.failure_pattern)
        assert result.ok, result.violations
        assert not trace.records_of(membership.processes[0], "DiamondHP.h_trusted")

    def test_observation_one_stacks_under_figure_8_by_name(self):
        # The published view is the row's `detector_name`, as for Figures 6 and 7:
        # the builder sees HΩ provided, and Figure 8 decides over the emulation.
        spec = (
            scenario()
            .homonyms([2, 2, 1])
            .crashes(crashes_at(CRASH))
            .detectors("DiamondHP", stabilization=15.0)
            .program("ohp_to_homega", detector_name="HOmega")
            .consensus("homega_majority")
            .build()
        )
        metrics = Engine().run(spec).metrics
        assert metrics["decided"] and metrics["safe"]


class TestTable:
    def test_every_row_joins_classes_of_the_class_table(self):
        assert len(REDUCTIONS) == 7
        for name, row in REDUCTIONS.items():
            assert name == row.name
            assert set(row.sources) | {row.target} <= set(CLASSES)
            assert row.model in ("AS", "AAS", ANY_MODEL)

    def test_every_row_is_a_registered_program_a_spec_can_name(self):
        for name, row in REDUCTIONS.items():
            entry = PROGRAMS.resolve(name)
            assert entry.paper_item == row.paper_item
            program = entry.build(period=2.0)
            assert isinstance(program, ReductionProgram) and program.row is row
            assert program.period == 2.0 and program.sources == row.sources

    def test_every_paper_item_appears_in_the_relation_graph(self):
        relations = paper_relations()
        for row in REDUCTIONS.values():
            (edge,) = [relation for relation in relations if row.name in relation.implemented_by]
            assert row.paper_item in edge.established_by
            assert edge.source is CLASSES[row.sources[0]].cls
            assert edge.target is CLASSES[row.target].cls
            assert edge.model == row.model

    def test_the_six_proven_edges_are_derived_from_the_seven_rows(self):
        implemented = [r.implemented_by for r in paper_relations() if r.implemented_by]
        assert len(implemented) == 6
        assert sorted(name for names in implemented for name in names) == sorted(REDUCTIONS)
        assert ("sigma_to_hsigma_known", "sigma_to_hsigma") in implemented  # Theorem 1's two figures

    @pytest.mark.parametrize("name", list(REDUCTIONS))
    def test_a_published_emulation_answers_in_its_class_before_its_first_step(self, name):
        # A co-located consumer may run before the emulation's first iteration
        # (step delays are random): every output then reads as a value of the
        # class's shape — an empty multiset / set, never None.
        row = REDUCTIONS[name]
        membership = unique_identities(3) if row.model == "AS" else anonymous_identities(3)
        types = {}

        class Reader(ProcessProgram):
            def setup(self, ctx):
                emulated, oracle = ctx.detector("Emulated"), ctx.detector(row.target)
                for output in CLASSES[row.target].outputs:
                    types[output] = (type(getattr(emulated, output)), type(getattr(oracle, output)))

        def factory(pid, identity):
            program = ReductionProgram(row, detector_name="Emulated", **row.params_in(membership))
            return CompositeProgram(program, Reader())

        Simulation(
            build_system(
                membership=membership,
                timing=AsynchronousTiming(),
                program_factory=factory,
                detectors={
                    source: (lambda s, source=source: CLASSES[source].oracle(s))
                    for source in (*row.sources, row.target)
                },
                seed=0,
            )
        ).run(until=0.0)
        assert types and all(ours is theirs for ours, theirs in types.values()), types

    def test_the_period_must_be_positive(self):
        with pytest.raises(ValueError):
            ReductionProgram(REDUCTIONS["ap_to_ohp"], period=0.0)

    def test_the_package_docstring_and_the_readme_render_the_table(self):
        import repro.reductions

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rendered = [
            f"| {row.paper_item} | `{row.name}` | {row.label} | {row.model} | "
            f"{', '.join(f'`{source}`' for source in row.sources)} | `{row.target}` |"
            for row in REDUCTIONS.values()
        ]
        start = readme.index(rendered[0])
        assert readme[start:].splitlines()[: len(rendered)] == rendered
        for row in REDUCTIONS.values():
            assert f"* {row.paper_item} — ``{row.name}``: {row.label}" in repro.reductions.__doc__


def _least_trusted_identifier(program, ctx, diamond_p):
    return min(diamond_p.trusted, key=repr, default=program.value)


#: Figure 5's dotted arrow ◇P̄ → Ω ("leader = min trusted id"), as a plugin row.
_EIGHTH = Reduction(
    "diamond_p_to_omega",
    "trivial (leader = min trusted id)",
    "AS",
    ("DiamondP",),
    "Omega",
    step=_least_trusted_identifier,
)


@pytest.fixture
def eighth(monkeypatch):
    monkeypatch.setattr(PROGRAMS, "_entries", dict(PROGRAMS._entries))  # undo the registration
    register_reduction(_EIGHTH)
    yield _EIGHTH
    del REDUCTIONS[_EIGHTH.name]


def test_an_eighth_reduction_is_one_row_and_e3_dispatches_it(eighth):

    e3 = ALL_EXPERIMENTS["E3"]
    ((method, make_spec, configs),) = e3.work(True, 0)
    assert (method, len(configs)) == ("run_sweep", len(REDUCTIONS)) and len(REDUCTIONS) == 8
    assert configs[-1] == {"case": 7, "reduction": "diamond_p_to_omega", "seed": 0}
    (row,), _ = e3.report(Engine().run_sweep(make_spec, configs[-1:]))
    assert row == {
        "paper_item": "trivial (leader = min trusted id)",
        "reduction": "◇P̄ → Ω",
        "model": "AS",
        "emulation_ok": True,
        "stabilization_time": 0.0,  # the least alive identifier never crashes
        "violations": 0,
    }
    assert ("diamond_p_to_omega",) in [r.implemented_by for r in paper_relations()]
    # A config names its row; `case` only offsets the seed, whatever row sits there.
    assert make_spec({**configs[-1], "case": 0}).program == "diamond_p_to_omega"
    with pytest.raises(ConfigurationError, match="already registered"):
        register_reduction(eighth)


def test_e3_names_the_row_whose_model_it_cannot_run(monkeypatch):
    row = dataclasses.replace(_EIGHTH, model="HPS")
    monkeypatch.setitem(REDUCTIONS, row.name, row)
    with pytest.raises(ConfigurationError, match="'diamond_p_to_omega' holds in model 'HPS'"):
        ALL_EXPERIMENTS["E3"].work(True, 0)[0][1]({"case": 7, "reduction": row.name, "seed": 0})


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
