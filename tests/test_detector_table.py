"""A detector class is a row of one table — and behaves exactly as before.

Figure 5's eleven classes (P, ◇P̄, Ω, Σ, ℰ, AP, AΩ, AΣ, ◇HP, HΩ, HΣ) are the
rows of ``repro.detectors.CLASSES``.  The first half of this file was written
and committed *before* any edit under ``detectors/``: it pins, on dbeee8c, what
every registered detector says and how its class axioms judge it, reached only
through registry names and trace keys so that it runs unchanged on both sides
of the refactor.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.detectors.probe import DetectorProbeProgram
from repro.experiments.e3_reductions import _run_case
from repro.identity import ProcessId
from repro.membership import grouped_identities, unique_identities
from repro.runtime import CHECKS, DETECTORS
from repro.sim import AsynchronousTiming, CrashSchedule, Simulation, build_system

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
#: Classes only defined with unique identifiers run on five distinct ones,
#: the others on homonymy groups of 3, 2 and 1.
_UNIQUE_ONLY = {"Perfect", "DiamondP", "Omega", "Sigma", "ScriptE"}
#: P had no trace key and no axioms on dbeee8c; its view called its one output
#: ``trusted``.  The stream below is what that output said.
_P_KEY = "Perfect.suspected"

#: (registry name, seed) → (event digest, sha256 of the record stream,
#: (ok, stabilization_time, violations) of the class check), as dbeee8c prints them.
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


def _read(view, output):
    # dbeee8c's P view names its suspected set ``trusted`` (fixed in this PR).
    return getattr(view, output) if hasattr(view, output) else view.trusted


def _probe_run(name, seed):
    """Every process samples detector ``name`` once per time unit for 40 units:
    two noise windows of 4, stabilization at 15, one crash at 10."""
    membership = unique_identities(5) if name in _UNIQUE_ONLY else grouped_identities([3, 2, 1])
    keys = _PINNED_KEYS.get(name, (_P_KEY,))
    probes = {
        key: (lambda ctx, output=key.split(".", 1)[1]: _read(ctx.detector(name), output))
        for key in keys
    }
    system = build_system(
        membership=membership,
        timing=AsynchronousTiming(min_latency=0.1, max_latency=1.0),
        program_factory=lambda pid, identity: DetectorProbeProgram(probes, period=1.0),
        crash_schedule=CrashSchedule.at_times({ProcessId(1): 10.0}),
        detectors={
            name: DETECTORS.resolve(name)({"stabilization_time": 15.0, "noise_period": 4.0})
        },
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=40.0)
    stream = hashlib.sha256()
    for process in membership.processes:
        for record in trace.records_of(process):
            line = (record.time, record.process.index, record.key, _canonical(record.value))
            stream.update(repr(line).encode())
    check = _PINNED_CHECKS.get(name)
    verdict = None
    if check is not None:
        result = CHECKS.resolve(check)(trace, simulation.failure_pattern)
        verdict = (result.ok, result.stabilization_time, result.violations)
    return simulation.digest, stream.hexdigest(), verdict


class TestRowsReproduceTheParentCommit:
    def test_the_registry_names_are_the_pinned_ones(self):
        assert DETECTORS.names() == _PINNED_DETECTORS
        assert set(_PINNED_CHECKS.values()) <= set(CHECKS.names())
        assert {name for name, _ in _PINNED_RUNS} == set(_PINNED_DETECTORS)

    @pytest.mark.parametrize("name, seed", sorted(_PINNED_RUNS))
    def test_detector(self, name, seed):
        assert _probe_run(name, seed) == _PINNED_RUNS[name, seed]

    @pytest.mark.parametrize("case", sorted(_PINNED_E3))
    def test_e3_cell(self, case):
        assert _run_case({"case": case, "seed": 0}) == _PINNED_E3[case]


if __name__ == "__main__":  # record: PYTHONPATH=src python -m tests.test_detector_table
    for name in _PINNED_DETECTORS:
        for seed in (0, 1):
            print(f"    ({name!r}, {seed}): {_probe_run(name, seed)!r},")
    for case in range(7):
        print(f"    {case}: {_run_case({'case': case, 'seed': 0})!r},")
