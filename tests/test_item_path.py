"""The one item path: engine and fabric share cache entries (digests included),
and an item's digests reach an enclosing capture exactly once."""

from __future__ import annotations

from pathlib import Path

import pytest

from bench.workloads import DigestCapture
from repro.experiments.e1_ohp_convergence import _run_one as run_one_e1
from repro.experiments.e9_fault_envelope import _run_one as run_one_e9
from repro.fabric import FabricPlan, execute_item, plan_sweep
from repro.fabric.coordinator import Coordinator
from repro.fabric.plan import PlanningEngine
from repro.runtime import Engine, executor_for, minority, scenario
from repro.runtime import engine as engine_module
from repro.runtime.cache import RunCache
from repro.sim.scheduler import capture_digests
from tests.helpers import poison_run_one

E1_CONFIGS = [
    {"n": 3, "distinct_ids": ids, "gst": 2.0, "delta": 0.5, "fixed_timeout": False, "seed": seed}
    for seed, ids in enumerate([1, 3, 1, 3])
]
E9_CONFIGS = [
    {"loss": loss, "partition": "none", "stabilization": 10.0, "seed": seed}
    for seed, loss in enumerate([0.0, 0.1, 0.3])
]


def _spec(seed: int):
    return (
        scenario("item-path")
        .processes(4)
        .distinct_ids(2)
        .crashes(minority(at=6.0, count=1))
        .detectors("HOmega", "HSigma", stabilization=10.0)
        .consensus("homega_majority")
        .horizon(300.0)
        .seed(seed)
        .build()
    )


SPECS = [_spec(seed) for seed in range(3)]
MAP_ITEMS = [{"x": 1}, {"x": 2}]


def _dispatch(engine: Engine) -> tuple[list, list, list]:
    """One call of every kind: what is planned, warmed and replayed below."""
    return (
        engine.sweep(run_one_e1, E1_CONFIGS),
        engine.run_many(SPECS),
        engine.map(poison_run_one, MAP_ITEMS),
    )


@pytest.fixture
def mixed_plan() -> FabricPlan:
    recorder = PlanningEngine(experiment="mixed")
    _dispatch(recorder)
    assert [item.kind for item in recorder.items] == ["sweep"] * 4 + ["spec"] * 3 + ["map"] * 2
    return FabricPlan(items=recorder.items, experiments=("mixed",))


# ---------------------------------------------------------------------------
# (b) one cache entry per item, written by either side, read by both
# ---------------------------------------------------------------------------
def test_engine_warmed_cache_serves_the_fabric_with_digests(mixed_plan, tmp_path) -> None:
    cache = RunCache(tmp_path / "cache")
    _dispatch(Engine(cache=cache))
    assert len(cache) == len(mixed_plan)
    reference = Coordinator(mixed_plan, state_dir=tmp_path / "cold", workers=2).run()
    warm = Coordinator(mixed_plan, state_dir=tmp_path / "warm", workers=2, cache=cache).run()
    assert warm.stats["fresh"] == 0 and warm.stats["cached"] == len(mixed_plan)
    assert warm.digests_complete
    assert warm.manifest() == reference.manifest()
    assert Path(warm.merged_path).read_bytes() == Path(reference.merged_path).read_bytes()
    assert len(cache) == len(mixed_plan)  # the fabric wrote nothing beside the engine's entries


def test_fabric_warmed_cache_serves_the_engine_without_executing(
    mixed_plan, tmp_path, monkeypatch
) -> None:
    fresh_rows, fresh_records, fresh_mapped = _dispatch(Engine())
    cache = RunCache(tmp_path / "cache")
    Coordinator(mixed_plan, state_dir=tmp_path / "state", workers=2, cache=cache).run()
    assert len(cache) == len(mixed_plan)

    def never(_arg):
        raise AssertionError("a cached item was executed")

    never.__module__, never.__qualname__ = run_one_e1.__module__, run_one_e1.__qualname__
    monkeypatch.setattr(engine_module, "execute_spec", never)
    engine = Engine(cache=cache)
    assert engine.sweep(never, E1_CONFIGS) == fresh_rows
    assert engine.run_many(SPECS) == fresh_records
    never.__module__, never.__qualname__ = poison_run_one.__module__, poison_run_one.__qualname__
    assert engine.map(never, MAP_ITEMS) == fresh_mapped
    assert engine.cache.hits == len(mixed_plan)


# ---------------------------------------------------------------------------
# (c) an enclosing capture sees every digest exactly once, in input order
# ---------------------------------------------------------------------------
def _digests_one_by_one(run_one, configs) -> list[int]:
    expected: list[int] = []
    for config in configs:
        with capture_digests() as one:
            run_one(dict(config))
        assert one  # every config simulates something
        expected.extend(one)
    return expected


def test_capture_around_a_serial_sweep_sees_each_digest_once() -> None:
    expected = _digests_one_by_one(run_one_e1, E1_CONFIGS)
    with capture_digests() as seen:
        Engine().sweep(run_one_e1, E1_CONFIGS)
    assert seen == expected


def test_capture_around_an_item_that_nests_an_engine_run() -> None:
    """E9's ``_run_one`` calls ``Engine().run(spec)``: the inner item must not
    steal the digest from the outer item, nor either from the capture."""
    expected = _digests_one_by_one(run_one_e9, E9_CONFIGS)
    with capture_digests() as seen:
        Engine().sweep(run_one_e9, E9_CONFIGS)
    assert seen == expected
    plan = plan_sweep(run_one_e9, E9_CONFIGS)
    with capture_digests() as seen:
        results = [execute_item(item) for item in plan.items]
    assert seen == expected
    assert [digest for result in results for digest in result.digests] == expected


def test_capture_through_a_wrapped_pool_sees_each_digest_once() -> None:
    """The digest manifest's and bench's pattern (bench's own, frozen wrapper):
    the dispatched function is wrapped with ``run_with_digest_capture`` and
    the wrapper's sink is also the enclosing capture's."""
    expected = _digests_one_by_one(run_one_e1, E1_CONFIGS)
    capture = DigestCapture(executor_for(2))
    with Engine(capture) as engine:
        with capture_digests(capture.sink):
            # a 1-item call on a cold pool runs in the parent, inside the wrapper
            first = engine.sweep(run_one_e1, E1_CONFIGS[:1])
            assert not capture.inner.alive
            rest = engine.sweep(run_one_e1, E1_CONFIGS[1:])
            assert capture.inner.alive
    assert capture.sink == expected
    assert first + rest == Engine().sweep(run_one_e1, E1_CONFIGS)
