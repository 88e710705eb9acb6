"""The shard planner: bounds math, sweep slicing, and plan enumeration."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.runner import ParameterSweep, shard_bounds, shard_items
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.base import Experiment
from repro.experiments.e1_ohp_convergence import _run_one as run_one_e1
from repro.fabric import FabricPlan, plan_experiments, plan_sweep
from repro.fabric.plan import PlanningEngine, PlanningError
from repro.runtime.engine import item_key
from repro.runtime.registry import Registry
from repro.runtime.spec import ScenarioSpec


# ---------------------------------------------------------------------------
# shard_bounds / shard_items / ParameterSweep.slice
# ---------------------------------------------------------------------------
@given(total=st.integers(0, 500), shards=st.integers(1, 20))
def test_shard_bounds_partition(total: int, shards: int) -> None:
    """The shards tile [0, total) contiguously, disjointly, and near-evenly."""
    bounds = [shard_bounds(total, shard, shards) for shard in range(shards)]
    cursor = 0
    sizes = []
    for start, end in bounds:
        assert start == cursor  # contiguous and in order: no gap, no overlap
        assert end >= start
        sizes.append(end - start)
        cursor = end
    assert cursor == total
    assert max(sizes) - min(sizes) <= 1  # balanced to within one item


def test_shard_bounds_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        shard_bounds(10, 0, 0)
    with pytest.raises(ValueError):
        shard_bounds(10, 3, 3)
    with pytest.raises(ValueError):
        shard_bounds(10, -1, 3)


@given(
    values=st.lists(st.integers(), max_size=60),
    shards=st.integers(1, 8),
)
def test_shard_items_union_is_order_stable(values: list[int], shards: int) -> None:
    """Concatenating the slices reproduces the input exactly (union, disjoint,
    order all in one equality)."""
    slices = [shard_items(values, shard, shards) for shard in range(shards)]
    assert [item for piece in slices for item in piece] == values


@given(repetitions=st.integers(1, 4), shards=st.integers(1, 7))
def test_parameter_sweep_slice(repetitions: int, shards: int) -> None:
    sweep = ParameterSweep(
        {"n": [3, 4], "delta": [0.5, 1.0]}, repetitions=repetitions, base_seed=7
    )
    full = list(sweep)
    slices = [sweep.slice(shard, shards) for shard in range(shards)]
    assert [config for piece in slices for config in piece] == full


# ---------------------------------------------------------------------------
# PlanningEngine / plan_experiments
# ---------------------------------------------------------------------------
def test_plan_e1_matches_serial_dispatch() -> None:
    """Quick E1 dispatches 12 sweep configs + 1 ablation = 13 items, keyed
    exactly as the run cache keys a live engine's dispatch."""
    plan = plan_experiments(["E1"], quick=True, seed=0)
    assert len(plan) == 13
    assert plan.experiments == ("E1",)
    assert [item.index for item in plan.items] == list(range(13))
    assert all(item.kind == "sweep" for item in plan.items)
    first = plan.items[0]
    assert first.key == item_key("sweep", run_one_e1, first.payload["config"])


def test_full_deterministic_plan_shape() -> None:
    """Every deterministic experiment plans, and the spans are contiguous."""
    names = ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E12"]
    plan = plan_experiments(names, quick=True, seed=0)
    assert len(plan) == 187  # pinned: a dispatch-shape change must be deliberate
    spans = plan.experiment_spans()
    assert set(spans) == set(names)
    covered = sorted(index for start, end in spans.values() for index in range(start, end))
    assert covered == list(range(len(plan)))
    kinds = {name: {plan.items[i].kind for i in range(*spans[name])} for name in names}
    assert kinds["E3"] == {"map"}
    assert kinds["E10"] == {"spec"}
    assert kinds["E1"] == {"sweep"}


@pytest.mark.parametrize(
    "quick, fingerprint, kinds",
    [
        # df2f1bd gave 2201f44460c3922b, before PlanningEngine became an Engine
        # subclass: the rewrite moved no key, index, call number or payload.
        # Recomputed once when E3's seven configs began to name their row
        # (`"reduction": <name>` beside `case`); diffed item by item against the
        # plan before, only those seven payloads and their keys differ.
        (True, "ba757deb54d92785", {"sweep": 168, "map": 7, "spec": 12}),
        # df2f1bd gave 99a14f97ba96354e (1901 items: 1840 / 7 / 54), and so did
        # the rewritten planner; recomputed once after full E8 dropped its nine
        # impossible items (distinct_ids=7 at n=5) — 430e8b0aa44d9ada — and once
        # for E3's seven configs, as above.
        (False, "04c70019717d0455", {"sweep": 1831, "map": 7, "spec": 54}),
    ],
)
def test_plan_fingerprints_are_pinned(quick, fingerprint, kinds) -> None:
    """Plan-only (nothing is simulated): every registered deterministic
    experiment plans to exactly these items — so a planner change that moves
    a key or a payload, or an aggregation error that truncates a plan, fails."""
    plan = plan_experiments(ALL_EXPERIMENTS, quick=quick, seed=0)
    assert {kind: sum(item.kind == kind for item in plan.items) for kind in kinds} == kinds
    text = json.dumps(plan.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == fingerprint
    if not quick:
        # no grid may ask for more distinct identifiers than processes
        # (full E8 did: ConfigurationError at run time, 72 items planned)
        configs = [item.payload["config"] for item in plan.items if item.kind == "sweep"]
        assert all(c["distinct_ids"] <= c["n"] for c in configs if {"n", "distinct_ids"} <= set(c))
        start, end = plan.experiment_spans()["E8"]
        assert end - start == (3 + 4) * 3 * 3


def _plan_from(monkeypatch, declarations: dict[str, Experiment]) -> FabricPlan:
    registry = Registry("experiment")
    for name, declaration in declarations.items():
        registry.register(name, declaration)
    monkeypatch.setattr("repro.fabric.plan.EXPERIMENTS", registry)
    return plan_experiments(declarations, quick=True, seed=0)


def test_planning_never_reduces(monkeypatch) -> None:
    """A plan is the declared ``work`` alone: no ``report`` sees a planned row."""

    def report(rows):
        raise AssertionError("report ran on planned rows")

    plan = _plan_from(
        monkeypatch, {name: replace(run, report=report) for name, run in ALL_EXPERIMENTS.items()}
    )
    text = json.dumps(plan.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == "ba757deb54d92785"


def test_planning_never_swallows(monkeypatch) -> None:
    """An error inside ``work`` propagates; it does not come back as a shorter plan."""

    def work(quick, seed):
        yield ("sweep", run_one_e1, [{"n": 3, "seed": seed}])
        raise ValueError("the second call could not be listed")

    toy = Experiment("TOY", "one call, then an error", ("n",), work, lambda rows: (rows, {}))
    with pytest.raises(ValueError, match="second call"):
        _plan_from(monkeypatch, {"TOY": toy})


def test_plan_is_deterministic_and_json_round_trips(tmp_path) -> None:
    plan = plan_experiments(["E1", "E9"], quick=True, seed=3)
    again = plan_experiments(["E1", "E9"], quick=True, seed=3)
    assert plan.to_dict() == again.to_dict()
    path = plan.write(tmp_path / "plan.json")
    assert FabricPlan.read(path).to_dict() == plan.to_dict()


def test_plan_chunks_concatenate_in_order() -> None:
    plan = plan_experiments(["E1"], quick=True, seed=0)
    chunks = plan.chunk(4)
    assert [item.index for chunk in chunks for item in chunk] == list(range(len(plan)))
    # more chunks than items: empties are dropped, items all survive
    assert sum(len(c) for c in plan.chunk(50)) == len(plan)


def test_plan_unknown_experiment_and_lambda_are_rejected() -> None:
    with pytest.raises(PlanningError, match="unknown experiment"):
        plan_experiments(["E99"])
    with pytest.raises(PlanningError, match="module-level"):
        plan_sweep(lambda config: {}, [{"seed": 0}])


def test_planning_engine_rejects_real_backend_specs() -> None:
    engine = PlanningEngine()
    spec = ScenarioSpec.from_dict(
        {
            "name": "real",
            "backend": "real",
            "membership": {"kind": "unique", "n": 3},
            "seed": 0,
        }
    )
    with pytest.raises(PlanningError, match="non-sim"):
        engine.run(spec)


def test_plan_sweep_over_raw_parameter_sweep() -> None:
    sweep = ParameterSweep({"n": [3, 4], "delta": [1.0]}, repetitions=2, base_seed=0)
    plan = plan_sweep(run_one_e1, sweep, name="raw")
    assert len(plan) == 4
    assert plan.experiments == ("raw",)
    assert all(item.payload["fn"].endswith("._run_one") for item in plan.items)
    # planning from the dotted name gives the identical plan
    named = plan_sweep(plan.items[0].payload["fn"], sweep, name="raw")
    assert named.to_dict() == plan.to_dict()
