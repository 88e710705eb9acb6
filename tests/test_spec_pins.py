"""E1, E2 and E3 run exactly as f6e7d29 ran them.

Written and committed *before* the first edit to ``src/`` of the PR that made
a reduction a row and E1–E3's runs specs.  It reaches the code only through
what that PR keeps — ``ALL_EXPERIMENTS[name].work(quick, seed)`` and the
function each declared call names — so the literals below were recorded on the
parent and never re-recorded.  E2 and E3 now declare ``run_sweep`` calls: the
function makes the spec, which runs as ``simulate_spec``, and the pinned
outcome is read from its record (E3's through E3's ``report``) and, for E2's
``faulty``, from the run's failure pattern.  What is pinned:

* all seven reductions × seeds 0 and 1: event digest, check verdict,
  stabilisation time and violation count of the run E3 dispatches;
* every quick and every 7th full-mode config of E1 and E2: event digest and
  the outcome the experiment's table is built from.

The last test is what the move made possible: every one of those quick runs is
named by a ``ScenarioSpec`` that survives JSON and runs to the pinned digest.
"""

from __future__ import annotations

import importlib
import json

import pytest

from repro.analysis.runner import merge_row
from repro.experiments import ALL_EXPERIMENTS
from repro.runtime import ScenarioSpec, execute_spec, measure_run, simulate_spec
from repro.sim.scheduler import capture_digests

_STRIDE = 7


def dispatched(name: str, quick: bool, seed: int = 0) -> list:
    """``(method, fn, config)`` of every run ``name`` declares, in dispatch order."""
    return [
        (method, fn, dict(config))
        for method, fn, configs in ALL_EXPERIMENTS[name].work(quick, seed)
        for config in configs
    ]


def executed(method: str, fn, config: dict) -> tuple:
    """``(digest, row, faulty)`` of one declared run: a ``run_sweep`` row is the
    config merged with the record's metrics, a ``sweep`` row what ``fn`` returns;
    ``faulty`` is read from the run's failure pattern (``None`` for a ``sweep``)."""
    faulty = None
    with capture_digests() as digests:
        if method == "run_sweep":
            spec = fn(dict(config))
            simulation = simulate_spec(spec)
            row = merge_row(config, measure_run(spec, simulation).metrics)
            faulty = len(simulation.failure_pattern.faulty)
            simulation.close()
        else:
            row = fn(dict(config))
    (digest,) = digests
    return f"{digest:016x}", row, faulty


def observed(method: str, fn, config: dict) -> tuple:
    """``(digest, outcome as JSON)`` of one declared E1 or E2 run."""
    digest, row, faulty = executed(method, fn, config)
    if method == "run_sweep":  # E2: what its table is built from
        row = {
            "faulty": faulty,
            "properties_ok": row["hsigma_ok"],
            "violations": row["hsigma_violations"],
        }
    return digest, json.dumps(row, sort_keys=True, ensure_ascii=False)


def _selection(name: str, mode: str) -> list:
    runs = dispatched(name, quick=mode == "quick")
    return runs if mode == "quick" else runs[::_STRIDE]


# fmt: off
#: E3: (seed, position in the dispatched list) → (digest, paper item,
#: emulation_ok, stabilization_time, violations).
PINNED_REDUCTIONS = {
    (0, 0): ('555ba7fa89efc004', 'Figure 1 (Theorem 1.1)', True, None, 0),
    (0, 1): ('1cd57ac34e3cf4a7', 'Figure 2 (Theorem 1.2)', True, None, 0),
    (0, 2): ('a0351f1836331b71', 'Figure 4 (Theorem 2)', True, 17.0, 0),
    (0, 3): ('555ba7fa89efc004', 'Theorem 3', True, None, 0),
    (0, 4): ('555ba7fa89efc004', 'Lemma 2 (Theorem 4)', True, 10.0, 0),
    (0, 5): ('555ba7fa89efc004', 'Lemma 3 (Theorem 4)', True, None, 0),
    (0, 6): ('29d92e849b54a54a', 'Observation 1', True, 10.0, 0),
    (1, 0): ('555ba7fa89efc004', 'Figure 1 (Theorem 1.1)', True, None, 0),
    (1, 1): ('4c4b91f3719a7117', 'Figure 2 (Theorem 1.2)', True, None, 0),
    (1, 2): ('6951132112dc5ded', 'Figure 4 (Theorem 2)', True, 17.0, 0),
    (1, 3): ('555ba7fa89efc004', 'Theorem 3', True, None, 0),
    (1, 4): ('555ba7fa89efc004', 'Lemma 2 (Theorem 4)', True, 10.0, 0),
    (1, 5): ('555ba7fa89efc004', 'Lemma 3 (Theorem 4)', True, None, 0),
    (1, 6): ('29d92e849b54a54a', 'Observation 1', True, 10.0, 0),
}

#: (experiment, mode, position in the selection) → (digest, outcome JSON).
PINNED_RUNS = {
    ('E1', 'quick', 0): ('c559f9b3e50995ea', '{"converged": true, "convergence_time": 14.0, "final_timeout": 9.0, "homega_ok": true}'),
    ('E1', 'quick', 1): ('73b716b6a449ed50', '{"converged": true, "convergence_time": 26.0, "final_timeout": 14.0, "homega_ok": true}'),
    ('E1', 'quick', 2): ('4e8f44e83d145ad3', '{"converged": true, "convergence_time": 37.0, "final_timeout": 14.0, "homega_ok": true}'),
    ('E1', 'quick', 3): ('8490d44f16d8e596', '{"converged": true, "convergence_time": 55.0, "final_timeout": 23.0, "homega_ok": true}'),
    ('E1', 'quick', 4): ('c81de38375ba8a2f', '{"converged": true, "convergence_time": 13.0, "final_timeout": 7.0, "homega_ok": true}'),
    ('E1', 'quick', 5): ('e1e2a7997927875e', '{"converged": true, "convergence_time": 24.0, "final_timeout": 13.0, "homega_ok": true}'),
    ('E1', 'quick', 6): ('8db73517d1c547a0', '{"converged": true, "convergence_time": 37.0, "final_timeout": 13.0, "homega_ok": true}'),
    ('E1', 'quick', 7): ('aadd668885860445', '{"converged": true, "convergence_time": 45.0, "final_timeout": 17.0, "homega_ok": true}'),
    ('E1', 'quick', 8): ('6c4436f1b062025b', '{"converged": true, "convergence_time": 16.0, "final_timeout": 6.0, "homega_ok": true}'),
    ('E1', 'quick', 9): ('8a038a5719818040', '{"converged": true, "convergence_time": 27.0, "final_timeout": 14.0, "homega_ok": true}'),
    ('E1', 'quick', 10): ('a1c72d0171188b9f', '{"converged": true, "convergence_time": 34.0, "final_timeout": 9.0, "homega_ok": true}'),
    ('E1', 'quick', 11): ('f0fdb9cb2a08d55e', '{"converged": true, "convergence_time": 40.0, "final_timeout": 13.0, "homega_ok": true}'),
    ('E1', 'quick', 12): ('8c9aff84b6b17ac0', '{"converged": false, "convergence_time": null, "final_timeout": 1.0, "homega_ok": false}'),
    ('E1', 'full', 0): ('bbe950f2ec10b906', '{"converged": true, "convergence_time": 11.0, "final_timeout": 8.0, "homega_ok": true}'),
    ('E1', 'full', 1): ('5af9aec584f12728', '{"converged": true, "convergence_time": 24.0, "final_timeout": 16.0, "homega_ok": true}'),
    ('E1', 'full', 2): ('07cc5559a7e03ddc', '{"converged": true, "convergence_time": 34.0, "final_timeout": 13.0, "homega_ok": true}'),
    ('E1', 'full', 3): ('661979d50a15ecdb', '{"converged": true, "convergence_time": 64.0, "final_timeout": 17.0, "homega_ok": true}'),
    ('E1', 'full', 4): ('54ba1ea0effb935e', '{"converged": true, "convergence_time": 11.0, "final_timeout": 8.0, "homega_ok": true}'),
    ('E1', 'full', 5): ('e05cee7b903ce1ef', '{"converged": true, "convergence_time": 25.0, "final_timeout": 11.0, "homega_ok": true}'),
    ('E1', 'full', 6): ('166e974c02ff8389', '{"converged": true, "convergence_time": 39.0, "final_timeout": 13.0, "homega_ok": true}'),
    ('E1', 'full', 7): ('58d8425edc09015c', '{"converged": true, "convergence_time": 63.0, "final_timeout": 12.0, "homega_ok": true}'),
    ('E1', 'full', 8): ('a331b6ea08435901', '{"converged": true, "convergence_time": 11.0, "final_timeout": 5.0, "homega_ok": true}'),
    ('E1', 'full', 9): ('7b0a7be980134a85', '{"converged": true, "convergence_time": 33.0, "final_timeout": 8.0, "homega_ok": true}'),
    ('E1', 'full', 10): ('bcff048e80fd7fa4', '{"converged": true, "convergence_time": 42.0, "final_timeout": 16.0, "homega_ok": true}'),
    ('E1', 'full', 11): ('74a5e930ca3f9cc3', '{"converged": true, "convergence_time": 66.0, "final_timeout": 11.0, "homega_ok": true}'),
    ('E1', 'full', 12): ('0635f1ff2e2ae46a', '{"converged": true, "convergence_time": 20.0, "final_timeout": 10.0, "homega_ok": true}'),
    ('E1', 'full', 13): ('0429cfaea321d85f', '{"converged": true, "convergence_time": 73.0, "final_timeout": 17.0, "homega_ok": true}'),
    ('E1', 'full', 14): ('17966813fcaf0f41', '{"converged": true, "convergence_time": 40.0, "final_timeout": 20.0, "homega_ok": true}'),
    ('E1', 'full', 15): ('d82955f307c7b4e6', '{"converged": true, "convergence_time": 264.0, "final_timeout": 30.0, "homega_ok": true}'),
    ('E1', 'full', 16): ('3e1b600636711bb1', '{"converged": true, "convergence_time": 26.0, "final_timeout": 10.0, "homega_ok": true}'),
    ('E1', 'full', 17): ('31d7f5234a3c3ec7', '{"converged": true, "convergence_time": 55.0, "final_timeout": 17.0, "homega_ok": true}'),
    ('E1', 'full', 18): ('a288b1ec9de7b058', '{"converged": true, "convergence_time": 67.0, "final_timeout": 20.0, "homega_ok": true}'),
    ('E1', 'full', 19): ('9793f528caca9ff8', '{"converged": true, "convergence_time": 222.0, "final_timeout": 30.0, "homega_ok": true}'),
    ('E1', 'full', 20): ('d64e36b8fe8f22bb', '{"converged": true, "convergence_time": 15.0, "final_timeout": 11.0, "homega_ok": true}'),
    ('E1', 'full', 21): ('d82bd0fce662c8f3', '{"converged": true, "convergence_time": 53.0, "final_timeout": 14.0, "homega_ok": true}'),
    ('E1', 'full', 22): ('3131879e30bef58b', '{"converged": true, "convergence_time": 62.0, "final_timeout": 18.0, "homega_ok": true}'),
    ('E1', 'full', 23): ('f5a0ff60786044f0', '{"converged": true, "convergence_time": 91.0, "final_timeout": 22.0, "homega_ok": true}'),
    ('E1', 'full', 24): ('78aab6e8d1b7eb58', '{"converged": true, "convergence_time": 27.0, "final_timeout": 30.0, "homega_ok": true}'),
    ('E1', 'full', 25): ('5e1255d8ea08178b', '{"converged": true, "convergence_time": 122.0, "final_timeout": 25.0, "homega_ok": true}'),
    ('E1', 'full', 26): ('dbdf3457410b372e', '{"converged": true, "convergence_time": 323.0, "final_timeout": 42.0, "homega_ok": true}'),
    ('E1', 'full', 27): ('79c91ed69d5baa2e', '{"converged": true, "convergence_time": 16.0, "final_timeout": 13.0, "homega_ok": true}'),
    ('E1', 'full', 28): ('311086212819ef5c', '{"converged": true, "convergence_time": 24.0, "final_timeout": 23.0, "homega_ok": true}'),
    ('E1', 'full', 29): ('b704db0549e0b62b', '{"converged": true, "convergence_time": 81.0, "final_timeout": 25.0, "homega_ok": true}'),
    ('E1', 'full', 30): ('90516f610b31042d', '{"converged": true, "convergence_time": 108.0, "final_timeout": 32.0, "homega_ok": true}'),
    ('E1', 'full', 31): ('491390d8ad20fdb8', '{"converged": true, "convergence_time": 11.0, "final_timeout": 13.0, "homega_ok": true}'),
    ('E1', 'full', 32): ('4993ec6c291d4710', '{"converged": true, "convergence_time": 25.0, "final_timeout": 18.0, "homega_ok": true}'),
    ('E1', 'full', 33): ('b1e31c73edf9f8fd', '{"converged": true, "convergence_time": 47.0, "final_timeout": 24.0, "homega_ok": true}'),
    ('E1', 'full', 34): ('b1eeb8aeea9f8073', '{"converged": true, "convergence_time": 130.0, "final_timeout": 27.0, "homega_ok": true}'),
    ('E2', 'quick', 0): ('f3194da5897489e0', '{"faulty": 0, "properties_ok": true, "violations": 0}'),
    ('E2', 'quick', 1): ('ae094f03a58dbc65', '{"faulty": 2, "properties_ok": true, "violations": 0}'),
    ('E2', 'quick', 2): ('91022d39a8e0a97c', '{"faulty": 4, "properties_ok": true, "violations": 0}'),
    ('E2', 'quick', 3): ('f3194da5897489e0', '{"faulty": 0, "properties_ok": true, "violations": 0}'),
    ('E2', 'quick', 4): ('ae094f03a58dbc65', '{"faulty": 2, "properties_ok": true, "violations": 0}'),
    ('E2', 'quick', 5): ('91022d39a8e0a97c', '{"faulty": 4, "properties_ok": true, "violations": 0}'),
    ('E2', 'quick', 6): ('f3194da5897489e0', '{"faulty": 0, "properties_ok": true, "violations": 0}'),
    ('E2', 'quick', 7): ('ae094f03a58dbc65', '{"faulty": 2, "properties_ok": true, "violations": 0}'),
    ('E2', 'quick', 8): ('91022d39a8e0a97c', '{"faulty": 4, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 0): ('e813d19a108c4f94', '{"faulty": 0, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 1): ('1a9406380f021be4', '{"faulty": 1, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 2): ('04ae792a1ea7136b', '{"faulty": 3, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 3): ('1a9406380f021be4', '{"faulty": 1, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 4): ('04ae792a1ea7136b', '{"faulty": 3, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 5): ('e813d19a108c4f94', '{"faulty": 0, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 6): ('04ae792a1ea7136b', '{"faulty": 3, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 7): ('b34c86b45d27a833', '{"faulty": 0, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 8): ('d1f84fa62d24f179', '{"faulty": 3, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 9): ('f1d73def16f1f916', '{"faulty": 5, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 10): ('08e78c3035ee2736', '{"faulty": 1, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 11): ('f1d73def16f1f916', '{"faulty": 5, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 12): ('08e78c3035ee2736', '{"faulty": 1, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 13): ('d1f84fa62d24f179', '{"faulty": 3, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 14): ('642be014b6b97318', '{"faulty": 0, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 15): ('a1e85eeac7a83d3f', '{"faulty": 3, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 16): ('642be014b6b97318', '{"faulty": 0, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 17): ('c6348a94549ec02c', '{"faulty": 1, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 18): ('a867c6461e581ed8', '{"faulty": 5, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 19): ('c6348a94549ec02c', '{"faulty": 1, "properties_ok": true, "violations": 0}'),
    ('E2', 'full', 20): ('a867c6461e581ed8', '{"faulty": 5, "properties_ok": true, "violations": 0}'),
}
# fmt: on


@pytest.mark.parametrize("seed, index", sorted(PINNED_REDUCTIONS))
def test_reduction_runs_as_pinned(seed, index):
    digest, row, _ = executed(*dispatched("E3", quick=True, seed=seed)[index])
    (row,), _ = ALL_EXPERIMENTS["E3"].report([row])
    assert (
        digest,
        row["paper_item"],
        row["emulation_ok"],
        row["stabilization_time"],
        row["violations"],
    ) == PINNED_REDUCTIONS[seed, index]


@pytest.mark.parametrize("name, mode", [("E1", "quick"), ("E1", "full"), ("E2", "quick"), ("E2", "full")])
def test_sweep_runs_as_pinned(name, mode):
    runs = _selection(name, mode)
    pinned = [PINNED_RUNS[key] for key in sorted(PINNED_RUNS) if key[:2] == (name, mode)]
    assert len(runs) == len(pinned)
    for position, (method, fn, config) in enumerate(runs):
        assert observed(method, fn, config) == PINNED_RUNS[name, mode, position], (position, config)


@pytest.mark.parametrize("name", ["E1", "E2", "E3"])
def test_every_quick_run_is_a_spec_that_round_trips_to_the_pinned_digest(name):
    module = importlib.import_module(ALL_EXPERIMENTS[name].work.__module__)
    runs = dispatched(name, quick=True)
    assert len(runs) == {"E1": 13, "E2": 9, "E3": 7}[name]
    for position, (_, _, config) in enumerate(runs):
        spec = module._spec(config)
        revived = ScenarioSpec.from_json(spec.to_json())
        assert revived == spec
        assert revived.canonical_hash(include_seed=True) == spec.canonical_hash(include_seed=True)
        pinned = PINNED_REDUCTIONS[0, position] if name == "E3" else PINNED_RUNS[name, "quick", position]
        record = execute_spec(revived)
        assert record.digest == pinned[0]
        # … and to the verdicts: every check holds, except in E1's fixed-timeout ablation.
        held = all(record.metrics[f"{check}_ok"] for check in spec.checks)
        assert held != bool(config.get("fixed_timeout"))
