"""A detector class is a row of one table — and behaves exactly as before.

Figure 5's eleven classes (P, ◇P̄, Ω, Σ, ℰ, AP, AΩ, AΣ, ◇HP, HΩ, HΣ) are the
rows of ``repro.detectors.CLASSES``: output shape, what the oracle says
(``eventual`` / ``transient``) and the axioms.  These tests pin the four halves
of that contract:

* (a) every registered detector and every E3 cell reproduces what dbeee8c
  said — event digest, record stream, class verdict.  This half was written
  and committed *before* any edit under ``detectors/`` and reaches the code
  only through registry names and trace keys, so the pins were not re-recorded;
* (b) the paper's extreme-case claim, judge-side: with unique identifiers the
  HΩ / ◇HP axioms accept exactly what the Ω / ◇P̄ axioms accept, and with every
  identifier ``⊥`` the HΣ axioms on ``(x, ⊥^k)`` exactly what the AΣ axioms
  accept on ``(x, k)``;
* (c) the checker can fail: every row run with an inadmissible ``eventual`` is
  rejected by its own axioms, while an HΩ oracle that names a crashed leader
  with a wrong multiplicity until it stabilises is *accepted* — and Figure 8
  still decides under it;
* (d) a class is declared once: a twelfth row declared here registers its
  detector, check, keys, view and probes with no other edit, every view is
  derived from its row's outputs, and the README's class table is the one
  ``CLASSES`` renders.
"""

from __future__ import annotations

import dataclasses
import hashlib
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.detectors import CLASSES, DetectorProbeProgram, DetectorRow
from repro.detectors.properties import finally_each
from repro.experiments import ALL_EXPERIMENTS
from repro.identity import ANONYMOUS_IDENTITY, IdentityMultiset, ProcessId
from repro.membership import anonymous_identities, grouped_identities, unique_identities
from repro.runtime import (
    CHECKS,
    DETECTORS,
    Engine,
    crashes_at,
    measure_run,
    register_detector_class,
    scenario,
    simulate_spec,
)
from repro.runtime.engine import fold_checks
from repro.sim import AsynchronousTiming, CrashSchedule, RunTrace, Simulation, build_system
from repro.sim.failures import FailurePattern

# ----------------------------------------------------------------------
# (a) Pinned on dbeee8c, before the eleven oracle classes became rows
# ----------------------------------------------------------------------
#: Hash- and digest-bearing names, as literals: the twelve trace keys …
_PINNED_KEYS = {
    "DiamondP": ("DiamondP.trusted",),
    "Omega": ("Omega.leader",),
    "Sigma": ("Sigma.trusted",),
    "ScriptE": ("ScriptE.alive",),
    "AP": ("AP.anap",),
    "AOmega": ("AOmega.a_leader",),
    "ASigma": ("ASigma.a_sigma",),
    "DiamondHP": ("DiamondHP.h_trusted",),
    "HOmega": ("HOmega.h_leader", "HOmega.h_multiplicity"),
    "HSigma": ("HSigma.h_quora", "HSigma.h_labels"),
}
#: … the eleven ``DETECTORS`` names, and the ten class ``CHECKS`` names.
_PINNED_DETECTORS = (
    "AOmega", "AP", "ASigma", "DiamondHP", "DiamondP", "HOmega", "HSigma", "Omega",
    "Perfect", "ScriptE", "Sigma",
)  # fmt: skip
_PINNED_CHECKS = {
    "DiamondP": "diamond_p",
    "Omega": "omega",
    "Sigma": "sigma",
    "ScriptE": "script_e",
    "AP": "ap",
    "AOmega": "aomega",
    "ASigma": "asigma",
    "DiamondHP": "diamond_hp",
    "HOmega": "homega",
    "HSigma": "hsigma",
}
#: (registry name, seed) → (event digest, sha256 of the record stream,
#: (ok, stabilization_time, violations) of the class check), as dbeee8c prints them.
#: P had no trace key and no axioms there, and its view called its one output
#: ``trusted``: its stream is what that output said, under the key the row now
#: gives it, and its verdict is pinned as ``None``.
_PINNED_RUNS = {
    ('AOmega', 0): (
        '376589b93aa3c774',
        'e6a8945b6e2668cd4e15283b2ab6570ec1301607e7dc16d15db569c37d57aa31',
        (True, 15.0, ()),
    ),
    ('AOmega', 1): (
        '376589b93aa3c774',
        'e6a8945b6e2668cd4e15283b2ab6570ec1301607e7dc16d15db569c37d57aa31',
        (True, 15.0, ()),
    ),
    ('AP', 0): (
        '376589b93aa3c774',
        '3d44cd9bce6cd801eef83759856ec878b22da246bf47e6d9c6500521c4505c27',
        (True, 10.0, ()),
    ),
    ('AP', 1): (
        '376589b93aa3c774',
        '3d44cd9bce6cd801eef83759856ec878b22da246bf47e6d9c6500521c4505c27',
        (True, 10.0, ()),
    ),
    ('ASigma', 0): (
        '376589b93aa3c774',
        '04483415a4026fee1278797069b89f511fe720b7e6180fc5360b3d3efe14182f',
        (True, None, ()),
    ),
    ('ASigma', 1): (
        '376589b93aa3c774',
        '04483415a4026fee1278797069b89f511fe720b7e6180fc5360b3d3efe14182f',
        (True, None, ()),
    ),
    ('DiamondHP', 0): (
        '376589b93aa3c774',
        '2a6097dd37375126514bdb2168f88b831c7e5e780c09f49ac756aa828664a5f5',
        (True, 10.0, ()),
    ),
    ('DiamondHP', 1): (
        '376589b93aa3c774',
        '2a6097dd37375126514bdb2168f88b831c7e5e780c09f49ac756aa828664a5f5',
        (True, 10.0, ()),
    ),
    ('DiamondP', 0): (
        '87e3dae644faa9ec',
        'bc65a60a3ffae5a0c4db8b8ddd4b0132509a12bbabc6a086f8fd3f76c3d7ff19',
        (True, 10.0, ()),
    ),
    ('DiamondP', 1): (
        '87e3dae644faa9ec',
        'bc65a60a3ffae5a0c4db8b8ddd4b0132509a12bbabc6a086f8fd3f76c3d7ff19',
        (True, 10.0, ()),
    ),
    ('HOmega', 0): (
        '376589b93aa3c774',
        'e7c46fad2976292c9544f888ad754c827761640339174367d0aade98e2cc1843',
        (True, 15.0, ()),
    ),
    ('HOmega', 1): (
        '376589b93aa3c774',
        'e7c46fad2976292c9544f888ad754c827761640339174367d0aade98e2cc1843',
        (True, 15.0, ()),
    ),
    ('HSigma', 0): (
        '376589b93aa3c774',
        'f6cc1769bd5ecdc699cf6b9b88adedd3850e09a2b7b170a4412b1f0fe9d956ab',
        (True, None, ()),
    ),
    ('HSigma', 1): (
        '376589b93aa3c774',
        'f6cc1769bd5ecdc699cf6b9b88adedd3850e09a2b7b170a4412b1f0fe9d956ab',
        (True, None, ()),
    ),
    ('Omega', 0): (
        '87e3dae644faa9ec',
        'bbae62a85bebbfe5ab6a4e50f1ecae91cc2d9eb98329e7a6dcb2aa427bbb065e',
        (True, 15.0, ()),
    ),
    ('Omega', 1): (
        '87e3dae644faa9ec',
        'bbae62a85bebbfe5ab6a4e50f1ecae91cc2d9eb98329e7a6dcb2aa427bbb065e',
        (True, 15.0, ()),
    ),
    ('Perfect', 0): (
        '87e3dae644faa9ec',
        '1d7a6af55c80465a8a9f3d867a6824b82f78ec5389a35ac7fc4f4567cdeab4ad',
        None,
    ),
    ('Perfect', 1): (
        '87e3dae644faa9ec',
        '1d7a6af55c80465a8a9f3d867a6824b82f78ec5389a35ac7fc4f4567cdeab4ad',
        None,
    ),
    ('ScriptE', 0): (
        '87e3dae644faa9ec',
        '33d34cfb7d49557e06ea3408a63f9f76bbbbdd4dfa650302dcdbd401ba8a4c93',
        (True, 15.0, ()),
    ),
    ('ScriptE', 1): (
        '87e3dae644faa9ec',
        '33d34cfb7d49557e06ea3408a63f9f76bbbbdd4dfa650302dcdbd401ba8a4c93',
        (True, 15.0, ()),
    ),
    ('Sigma', 0): (
        '87e3dae644faa9ec',
        '1e68e58092ea01cabfba004b20d4a876e4a5961415e66d6d3354f13c46b926df',
        (True, 15.0, ()),
    ),
    ('Sigma', 1): (
        '87e3dae644faa9ec',
        '1e68e58092ea01cabfba004b20d4a876e4a5961415e66d6d3354f13c46b926df',
        (True, 15.0, ()),
    ),
}

#: E3 case index → the full row of seed 0 on dbeee8c.
_PINNED_E3 = {
    0: {
        'paper_item': 'Figure 1 (Theorem 1.1)',
        'reduction': 'Σ → HΣ (known membership)',
        'model': 'AS',
        'emulation_ok': True,
        'stabilization_time': None,
        'violations': 0,
    },
    1: {
        'paper_item': 'Figure 2 (Theorem 1.2)',
        'reduction': 'Σ → HΣ (unknown membership)',
        'model': 'AS',
        'emulation_ok': True,
        'stabilization_time': None,
        'violations': 0,
    },
    2: {
        'paper_item': 'Figure 4 (Theorem 2)',
        'reduction': 'HΣ → Σ (uses ℰ)',
        'model': 'AS',
        'emulation_ok': True,
        'stabilization_time': 17.0,
        'violations': 0,
    },
    3: {
        'paper_item': 'Theorem 3',
        'reduction': 'AΣ → HΣ',
        'model': 'AAS',
        'emulation_ok': True,
        'stabilization_time': None,
        'violations': 0,
    },
    4: {
        'paper_item': 'Lemma 2 (Theorem 4)',
        'reduction': 'AP → ◇HP',
        'model': 'AAS',
        'emulation_ok': True,
        'stabilization_time': 10.0,
        'violations': 0,
    },
    5: {
        'paper_item': 'Lemma 3 (Theorem 4)',
        'reduction': 'AP → HΣ',
        'model': 'AAS',
        'emulation_ok': True,
        'stabilization_time': None,
        'violations': 0,
    },
    6: {
        'paper_item': 'Observation 1',
        'reduction': '◇HP → HΩ',
        'model': 'HAS',
        'emulation_ok': True,
        'stabilization_time': 10.0,
        'violations': 0,
    },
}


def _canonical(value):
    """``repr`` with set elements in sorted order (a frozenset's own order
    follows the interpreter's string hash seed)."""
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_canonical(item) for item in value)) + "}"
    if isinstance(value, tuple):
        return "(" + ", ".join(_canonical(item) for item in value) + ")"
    return repr(value)


def _membership_for(row):
    """Classes only defined with unique identifiers run on five distinct ones,
    the others on homonymy groups of 3, 2 and 1."""
    return unique_identities(5) if row.unique_ids_only else grouped_identities([3, 2, 1])


def _probe_run(row, seed=0, *, oracle=None):
    """Every process samples ``row``'s detector once per time unit for 40 units:
    noise windows of 4, stabilization at 15, one crash at 10."""
    oracle = oracle or partial(row.oracle, stabilization_time=15.0, noise_period=4.0)
    system = build_system(
        membership=_membership_for(row),
        timing=AsynchronousTiming(min_latency=0.1, max_latency=1.0),
        program_factory=lambda pid, identity: DetectorProbeProgram(row.probes(), period=1.0),
        crash_schedule=CrashSchedule.at_times({ProcessId(1): 10.0}),
        detectors={row.name: oracle},
        seed=seed,
    )
    simulation = Simulation(system)
    simulation.run(until=40.0)
    return simulation


def _pinned_form(name, seed):
    """``(event digest, sha256 of the record stream, class verdict)`` of detector
    ``name``, with oracle and check resolved by registry name as a spec would."""
    oracle = partial(DETECTORS.resolve(name), stabilization_time=15.0, noise_period=4.0)
    simulation = _probe_run(CLASSES[name], seed, oracle=oracle)
    stream = hashlib.sha256()
    keys = CLASSES[name].keys
    for process in simulation.system.membership.processes:
        # The probe records every key once per sample, in ``keys`` order.
        series = [simulation.trace.records_of(process, key) for key in keys]
        for sample in zip(*series, strict=True):
            for key, (time, value) in zip(keys, sample):
                line = (time, process.index, key, _canonical(value))
                stream.update(repr(line).encode())
    verdict = None
    if name in _PINNED_CHECKS:
        result = CHECKS.resolve(_PINNED_CHECKS[name])(simulation.trace, simulation.failure_pattern)
        verdict = (result.ok, result.stabilization_time, result.violations)
    return simulation.digest, stream.hexdigest(), verdict


class TestRowsReproduceTheParentCommit:
    def test_the_names_are_the_pinned_ones(self):
        assert DETECTORS.names() == _PINNED_DETECTORS == tuple(sorted(CLASSES))
        assert {name for name, _ in _PINNED_RUNS} == set(_PINNED_DETECTORS)
        for name, row in CLASSES.items():
            assert row.keys == _PINNED_KEYS.get(name, ("Perfect.suspected",))
            assert row.check == _PINNED_CHECKS.get(name, "perfect")

    @pytest.mark.parametrize("name, seed", sorted(_PINNED_RUNS))
    def test_detector(self, name, seed):
        assert _pinned_form(name, seed) == _PINNED_RUNS[name, seed]

    @pytest.mark.parametrize("case", sorted(_PINNED_E3))
    def test_e3_cell(self, case):
        e3 = ALL_EXPERIMENTS["E3"]
        ((_, make_spec, configs),) = e3.work(True, 0)
        (cell,), _ = e3.report(Engine().run_sweep(make_spec, [configs[case]]))
        assert cell == _PINNED_E3[case]

    def test_p_has_a_judge_now(self):
        simulation = _probe_run(CLASSES["Perfect"])
        result = CLASSES["Perfect"].judge(simulation.trace, simulation.failure_pattern)
        assert (result.ok, result.stabilization_time) == (True, 10.0), result.violations


# ----------------------------------------------------------------------
# (b) Unique identifiers and anonymity are the two extremes — for the judge too
# ----------------------------------------------------------------------
@st.composite
def _runs(draw, membership_of):
    """A small membership, a crash set that spares someone, and per process a
    short series of sampling instants — none at all for at most one process."""
    membership = membership_of(draw(st.integers(2, 4)))
    processes = list(membership.processes)
    faulty = draw(st.lists(st.sampled_from(processes), unique=True, max_size=len(processes) - 1))
    pattern = FailurePattern(
        membership, CrashSchedule.at_times({process: 2.5 for process in faulty})
    )
    silent = draw(st.none() | st.sampled_from(processes))
    instants = {
        process: sorted(draw(st.lists(st.integers(1, 6), unique=True, min_size=1, max_size=3)))
        for process in processes
        if process != silent
    }
    return pattern, instants


def _mostly(right, anything):
    """Values that are usually what the class demands, so that whole traces are
    accepted about as often as they are rejected."""
    return st.one_of(st.just(right), st.just(right), st.just(right), anything)


def _traces(draw, instants, value_at, rows_and_shapes):
    """One trace per ``(row, shape)``: the same values, drawn from
    ``value_at(process)``, at the same instants, recorded under each row's
    keys in that row's shape."""
    traces = [RunTrace() for _ in rows_and_shapes]
    for process, times in instants.items():
        for time in times:
            drawn = draw(value_at(process))
            for trace, (row, shape) in zip(traces, rows_and_shapes):
                for key, part in zip(row.keys, shape(drawn)):
                    trace.record(process, key, part, float(time))
    return traces


def _verdicts(pattern, traces, rows):
    results = [row.judge(trace, pattern) for trace, row in zip(traces, rows)]
    return [(result.ok, result.stabilization_time, len(result.violations)) for result in results]


class TestTheExtremesCoincide:
    @given(data=st.data())
    def test_homega_is_omega_once_every_multiplicity_is_one(self, data):
        pattern, instants = data.draw(_runs(unique_identities))
        identities = sorted(pattern.membership.distinct_identities)
        elected = pattern.membership.identity_of(data.draw(st.sampled_from(sorted(pattern.correct))))
        leader = _mostly(elected, st.sampled_from(identities + ["nobody"]))
        omega, homega = CLASSES["Omega"], CLASSES["HOmega"]
        shapes = [(omega, lambda value: (value,)), (homega, lambda value: (value, 1))]
        traces = _traces(data.draw, instants, lambda process: leader, shapes)
        as_omega, as_homega = _verdicts(pattern, traces, (omega, homega))
        # An absent process misses one key under Ω and two under HΩ.
        assert as_omega[:2] == as_homega[:2]

    @given(data=st.data())
    def test_diamond_hp_is_diamond_p_once_a_multiset_is_a_set(self, data):
        pattern, instants = data.draw(_runs(unique_identities))
        identity_of = pattern.membership.identity_of
        trusted = _mostly(
            frozenset(map(identity_of, pattern.correct)),
            st.frozensets(st.sampled_from(sorted(pattern.membership.distinct_identities))),
        )
        diamond_p, diamond_hp = CLASSES["DiamondP"], CLASSES["DiamondHP"]
        shapes = [
            (diamond_p, lambda value: (value,)),
            (diamond_hp, lambda value: (IdentityMultiset(value),)),
        ]
        traces = _traces(data.draw, instants, lambda process: trusted, shapes)
        as_set, as_multiset = _verdicts(pattern, traces, (diamond_p, diamond_hp))
        assert as_set == as_multiset

    @given(data=st.data())
    def test_hsigma_is_asigma_once_every_identifier_is_bottom(self, data):
        pattern, instants = data.draw(_runs(anonymous_identities))
        size = pattern.membership.size
        anything = st.frozensets(
            st.tuples(st.sampled_from("xy"), st.integers(0, size + 1)), max_size=3
        )

        def pairs(process):
            # Admissible: the correct hold (x, |Correct|); the faulty a quorum
            # of everyone that only they name, so it never forms.
            if pattern.is_correct(process):
                return _mostly(frozenset({("x", len(pattern.correct))}), anything)
            return _mostly(frozenset({("y", size)}), anything)

        asigma, hsigma = CLASSES["ASigma"], CLASSES["HSigma"]
        shapes = [
            (asigma, lambda value: (value,)),
            (
                hsigma,
                lambda value: (
                    frozenset(
                        (label, IdentityMultiset.uniform(ANONYMOUS_IDENTITY, size))
                        for label, size in value
                    ),
                    frozenset(label for label, _ in value),
                ),
            ),
        ]
        traces = _traces(data.draw, instants, pairs, shapes)
        as_counts, as_multisets = _verdicts(pattern, traces, (asigma, hsigma))
        # HΣ states label monotonicity separately (one more message per drop).
        assert as_counts[:2] == as_multisets[:2]


# ----------------------------------------------------------------------
# (c) The checker can fail — and admits every history the class admits
# ----------------------------------------------------------------------
def _everyone(run):
    return frozenset(run.membership.distinct_identities)


def _crashed_identity(run):
    (crashed,) = run.pattern.faulty
    return run.membership.identity_of(crashed)


def _sigma_stuck(run, process):
    return CLASSES["ASigma"].transient(run, process, 0)


def _hsigma_stuck(run, process):
    return CLASSES["HSigma"].transient(run, process, 0)


def _overcounted(run, process):
    leader, multiplicity = CLASSES["HOmega"].eventual(run, process)
    return leader, multiplicity + 1


#: registry name → an ``eventual`` the class does not admit.
_INADMISSIBLE = {
    "Perfect": lambda run, process, now: _everyone(run),  # suspects the living
    "DiamondP": lambda run, process: _everyone(run),  # trusts the crashed one forever
    "Omega": lambda run, process: _crashed_identity(run),  # a faulty leader
    "Sigma": lambda run, process: _everyone(run),  # a quorum naming a crashed process
    "ScriptE": lambda run, process: tuple(  # the crashed one ranked first
        sorted(_everyone(run), key=lambda identity: identity != _crashed_identity(run))
    ),
    "AP": lambda run, process, now: len(run.pattern.correct) - 1,  # below the alive count
    "AOmega": lambda run, process: True,  # everyone a leader
    "ASigma": _sigma_stuck,  # never a quorum the correct can form
    "DiamondHP": lambda run, process: run.membership.identity_multiset(),  # wrong multiplicities
    "HOmega": _overcounted,  # the right leader, one homonym too many
    "HSigma": _hsigma_stuck,
}


class TestTheAxiomsRejectAndAdmit:
    def test_every_row_has_an_inadmissible_variant(self):
        assert set(_INADMISSIBLE) == set(CLASSES)

    @pytest.mark.parametrize("name", sorted(_INADMISSIBLE))
    def test_an_inadmissible_eventual_is_rejected(self, name):
        admissible = _probe_run(CLASSES[name])
        assert CLASSES[name].judge(admissible.trace, admissible.failure_pattern).ok
        broken = dataclasses.replace(CLASSES[name], eventual=_INADMISSIBLE[name])
        simulation = _probe_run(broken)
        result = broken.judge(simulation.trace, simulation.failure_pattern)
        assert not result.ok and result.violations

    def test_a_crashed_leader_with_every_multiplicity_is_an_admissible_homega_history(self):
        """HΩ promises nothing before it stabilises: naming an identifier whose
        every bearer has crashed, with multiplicity n, is as admissible as noise."""
        membership = grouped_identities([2, 2, 1])
        doomed = membership.processes[-1]  # the only bearer of its identifier
        said_first = [membership.identity_of(doomed), membership.size]
        history = {str(process.index): [[0.0, said_first]] for process in membership.processes}
        schedule = CrashSchedule.at_times({doomed: 1.0})
        oracle = partial(DETECTORS.resolve("HOmega"), stabilization_time=30.0, history=history)

        simulation = Simulation(
            build_system(
                membership=membership,
                timing=AsynchronousTiming(min_latency=0.1, max_latency=1.0),
                program_factory=lambda pid, identity: DetectorProbeProgram(
                    CLASSES["HOmega"].probes()
                ),
                crash_schedule=schedule,
                detectors={"HOmega": oracle},
            )
        )
        trace = simulation.run(until=60.0)
        said = {value for _, value in trace.records_of(membership.processes[0], "HOmega.h_leader")}
        assert said == {"grp2", "grp0"}  # the crashed identifier first, then the elected one
        result = CLASSES["HOmega"].judge(trace, simulation.failure_pattern)
        assert (result.ok, result.stabilization_time) == (True, 30.0), result.violations

        # Figure 8 under that history: nobody correct is a leader before t=30,
        # so nothing is decided by then — and everything after.
        spec = (
            scenario("figure8-crashed-leader")
            .homonyms([2, 2, 1])
            .crashes(crashes_at({doomed.index: 1.0}))
            .detectors("HOmega", stabilization=30.0, noise_period=None, history=history)
            .consensus("homega_majority")
            .check("consensus_validity", "consensus_agreement", "consensus_termination")
            .horizon(600.0)
            .build()
        )
        simulation = simulate_spec(spec)
        metrics = measure_run(spec, simulation).metrics
        assert [metrics[f"{check}_ok"] for check in spec.checks] == [True, True, True]
        assert min(decision.time for decision in simulation.trace.decisions.values()) > 30.0

    def test_a_transient_may_be_a_partial_or_a_callable_object(self):
        """Whether a transient is per-read or per-window is read from its
        signature — ``__code__.co_argcount`` raised ``AttributeError`` on both."""

        def says(leader, run, process, window):
            return leader, window + 1

        class SaysNobody:
            def __call__(self, run, process):
                return "nobody", 0

        per_window = dataclasses.replace(CLASSES["HOmega"], transient=partial(says, "grp1"))
        per_read = dataclasses.replace(CLASSES["HOmega"], transient=SaysNobody())
        assert per_window.windowed and not per_read.windowed
        assert CLASSES["HOmega"].windowed and not CLASSES["DiamondHP"].windowed
        assert not CLASSES["Perfect"].windowed  # no transient at all

        watcher = ProcessId(0)
        trace = _probe_run(per_window).trace
        before = [
            (leader, multiplicity)
            for (time, leader), (_, multiplicity) in zip(
                trace.records_of(watcher, "HOmega.h_leader"),
                trace.records_of(watcher, "HOmega.h_multiplicity"),
            )
            if time < 15.0
        ]
        # Noise windows of 4 time units: the bound ``window`` argument shows.
        assert set(before) == {("grp1", 1), ("grp1", 2), ("grp1", 3), ("grp1", 4)}
        trace = _probe_run(per_read).trace
        assert trace.records_of(watcher, "HOmega.h_leader")[0][1] == "nobody"


# ----------------------------------------------------------------------
# (d) A class is declared once
# ----------------------------------------------------------------------
def _counts_the_faulty(pattern):
    def complaints(value):
        if value != len(pattern.faulty):
            yield f" converged to {value} crashes, expected {len(pattern.faulty)}"

    return complaints


_TWELFTH = DetectorRow(
    cls="#C",
    name="CrashCount",
    check="crash_count",
    outputs=("crashed",),
    eventual=lambda run, process: len(run.pattern.faulty),
    transient=lambda run, process: 0,
    axioms=partial(finally_each, complaints=_counts_the_faulty),
    paper_item="none: declared in tests/test_detector_table.py",
)


def test_a_twelfth_class_is_one_row(monkeypatch):
    for registry in (DETECTORS, CHECKS):  # undo the registration
        monkeypatch.setattr(registry, "_entries", dict(registry._entries))
    assert "CrashCount" not in DETECTORS and "crash_count" not in CHECKS

    register_detector_class(_TWELFTH)

    assert _TWELFTH.keys == ("CrashCount.crashed",)
    oracle = partial(DETECTORS.resolve("CrashCount"), stabilization_time=15.0)
    simulation = _probe_run(_TWELFTH, oracle=oracle)
    series = [value for _, value in simulation.trace.records_of(ProcessId(0), "CrashCount.crashed")]
    assert series[0] == 0 and series[-1] == 1 and len(series) == 41
    metrics = fold_checks(simulation.trace, simulation.failure_pattern, ["crash_count"])
    assert metrics == {
        "crash_count_ok": True, "crash_count_time": 15.0, "crash_count_violations": 0
    }
    # … and the table of the paper's classes is not what a plugin extends.
    assert "CrashCount" not in CLASSES and len(CLASSES) == 11


@pytest.mark.parametrize("row", [*CLASSES.values(), _TWELFTH], ids=lambda row: row.name)
def test_a_view_is_derived_from_the_row_outputs(row):
    """A view exposes the row's outputs and ``read`` — nothing else — and each
    output is a plain property over the one reader."""
    public = {name for name in dir(row.view) if not name.startswith("_")}
    assert public == {*row.outputs, "read"}
    for output in row.outputs:
        assert isinstance(vars(row.view)[output], property), output
    assert row.view is row.view  # built once per row
    values = [f"value of {output}" for output in row.outputs]
    raw = tuple(values) if len(values) > 1 else values[0]
    view = row.view(lambda: raw)
    assert [getattr(view, output) for output in row.outputs] == values
    assert view.read() == raw


def test_the_readme_class_table_is_the_one_the_rows_render():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rendered = [
        f"| {row.cls} | `{row.name}` | `{row.check}` | "
        f"{', '.join(f'`{output}`' for output in row.outputs)} | {row.paper_item} |"
        for row in CLASSES.values()
    ]
    start = readme.index(rendered[0])
    assert readme[start:].splitlines()[: len(rendered)] == rendered
