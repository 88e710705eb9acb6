"""Tests for the sweep-scale execution layer: warm worker pool, chunked
dispatch, streaming, the digest-keyed run cache, and worker-crash handling."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.errors import ConfigurationError, WorkerCrashError
from repro.runtime import (
    Engine,
    RunCache,
    RunRecord,
    ScenarioSpec,
    SerialExecutor,
    WorkerPool,
    canonical_spec_hash,
    executor_for,
    minority,
    run_with_digest_capture,
    scenario,
)
from repro.runtime.executors import describe_item
from repro.runtime.fleet import FLUSH_INTERVAL

from .helpers import wait_until_dead


def small_spec(seed: int = 0, horizon: float = 300.0) -> ScenarioSpec:
    return (
        scenario("executor-test")
        .processes(4)
        .distinct_ids(2)
        .crashes(minority(at=6.0, count=1))
        .detectors("HOmega", "HSigma", stabilization=10.0)
        .consensus("homega_majority")
        .horizon(horizon)
        .seed(seed)
        .build()
    )


def _double(config: dict) -> dict:
    return {"doubled": config["x"] * 2}


def _slow_double(config: dict) -> dict:
    time.sleep(1.5 * FLUSH_INTERVAL)  # every result is flushed before its chunk ends
    return _double(config)


def _crash_on_seed_three(config: dict) -> dict:
    if config["seed"] == 3:
        os._exit(13)
    return {"ok": True}


class TestWorkerPoolLifecycle:
    def test_lazy_spawn_and_reuse_across_calls(self):
        with WorkerPool(jobs=2) as pool:
            assert not pool.alive  # nothing spawned until real work arrives
            first = pool.map(_double, [{"x": i} for i in range(6)])
            assert pool.alive
            backing = pool.worker_pids()
            assert len(backing) == 2
            second = pool.map(_double, [{"x": i} for i in range(6)])
            assert pool.worker_pids() == backing  # same processes served both calls
            assert first == second == [{"doubled": 2 * i} for i in range(6)]
        assert not pool.alive

    def test_close_is_idempotent_and_respawns_lazily(self):
        pool = WorkerPool(jobs=2)
        pool.map(_double, [{"x": 1}, {"x": 2}])
        pool.close()
        pool.close()  # second close is a no-op
        assert not pool.alive
        # A call after close() starts a fresh pool instead of failing.
        assert pool.map(_double, [{"x": 3}, {"x": 4}]) == [{"doubled": 6}, {"doubled": 8}]
        pool.close()

    def test_engine_owns_pool_across_run_sweep_calls(self):
        specs = [small_spec(seed) for seed in range(4)]
        with Engine(jobs=2) as engine:
            engine.run_many(specs)
            backing = engine.executor.worker_pids()
            assert backing
            engine.run_many(specs)
            assert engine.executor.worker_pids() == backing
        assert not engine.executor.alive

    def test_a_call_that_has_its_last_row_before_its_last_chunk_ends_keeps_its_workers(self):
        # Slow items travel one by one, so a chunk's "done" mark trails its
        # last result.  The engine must finish the pool call itself once the
        # last row is in, not drop it there (which the fleet reads as a
        # cancelled call: it kills the worker).
        configs = [{"x": i, "seed": i} for i in range(4)]
        with Engine(jobs=2) as engine:
            engine.sweep(_double, configs)  # spawn + warm
            backing = sorted(engine.executor.worker_pids())
            for _ in range(3):
                rows = engine.sweep(_slow_double, configs)
                assert rows == [{**config, "doubled": 2 * config["x"]} for config in configs]
                assert sorted(engine.executor.worker_pids()) == backing

    def test_single_item_runs_in_process_until_pool_is_warm(self):
        pool = WorkerPool(jobs=2)
        assert pool.map(_double, [{"x": 5}]) == [{"doubled": 10}]
        assert not pool.alive  # one item never justified spawning
        pool.close()


class TestValidationBoundaries:
    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(jobs=0)

    def test_engine_rejects_executor_plus_tuning_params(self):
        with pytest.raises(ValueError):
            Engine(SerialExecutor(), jobs=2)  # would be silently ignored


class TestDigestEquivalence:
    def test_serial_and_warm_pool_records_are_identical(self):
        specs = [small_spec(seed) for seed in range(5)]
        serial = Engine().run_many(specs)
        with Engine(executor_for(2)) as warm_engine:
            warm = warm_engine.run_many(specs)
            rerun = warm_engine.run_many(specs)  # same processes, second call
        assert [r.digest for r in serial] == [r.digest for r in warm]
        assert serial == warm == rerun

    def test_run_with_digest_capture_returns_run_digests(self):
        from repro.runtime.engine import execute_spec

        record, digests = run_with_digest_capture((execute_spec, small_spec(2)))
        assert [f"{d:016x}" for d in digests] == [record.digest]


class TestStreaming:
    def test_a_pool_streams_records_in_input_order(self):
        specs = [small_spec(seed) for seed in range(5)]
        streamed: list[dict] = []
        with Engine(jobs=2, progress=streamed.append) as engine:
            records = engine.run_many(specs)
        assert [payload["seed"] for payload in streamed] == [0, 1, 2, 3, 4]
        assert [RunRecord.from_dict(payload) for payload in streamed] == records
        assert records == Engine().run_many(specs)

    def test_each_row_is_flushed_before_the_next_item_runs(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        events: list[tuple] = []

        def run_one(config):
            events.append(("run", config["x"]))
            return _double(config)

        def progress(row):
            events.append(("row", row["x"], len(log.read_text().splitlines())))

        engine = Engine(jsonl_path=str(log), progress=progress)
        rows = engine.sweep(run_one, [{"x": i, "seed": i} for i in range(3)])
        assert rows[0] == {"x": 0, "seed": 0, "doubled": 0}
        # Row i is on disk, one line per row, before item i + 1 is computed.
        assert events == [
            ("run", 0), ("row", 0, 1), ("run", 1), ("row", 1, 2), ("run", 2), ("row", 2, 3)
        ]

    def test_progress_hook_sees_every_payload_in_order(self):
        seen: list[dict] = []
        engine = Engine(progress=seen.append)
        engine.sweep(_double, [{"x": i, "seed": i} for i in range(3)])
        assert [payload["x"] for payload in seen] == [0, 1, 2]


class TestRunCache:
    def test_record_cache_hit_reproduces_run_exactly(self, tmp_path):
        spec = small_spec(1)
        first = Engine(cache=str(tmp_path)).run(spec)
        cached_engine = Engine(cache=str(tmp_path))
        second = cached_engine.run(spec)
        assert second == first
        assert second.digest == first.digest
        assert cached_engine.cache.hits == 1

    def test_spec_edit_changes_hash_and_misses(self, tmp_path):
        engine = Engine(cache=str(tmp_path))
        engine.run(small_spec(1))
        edited = small_spec(1, horizon=301.0)
        assert canonical_spec_hash(edited) != canonical_spec_hash(small_spec(1))
        hits_before = engine.cache.hits
        engine.run(edited)
        assert engine.cache.hits == hits_before  # a genuine recompute

    def test_seed_is_part_of_the_key_not_the_hash(self, tmp_path):
        assert canonical_spec_hash(small_spec(1)) == canonical_spec_hash(small_spec(2))
        assert RunCache.record_key(small_spec(1)) != RunCache.record_key(small_spec(2))

    def test_sweep_outcomes_are_memoized_per_function_and_config(self, tmp_path):
        configs = [{"x": i, "seed": i} for i in range(4)]
        first = Engine(cache=str(tmp_path)).sweep(_double, configs)
        engine = Engine(cache=str(tmp_path))
        second = engine.sweep(_double, configs)
        assert second == first
        assert engine.cache.hits == len(configs)
        # A different config is a different key.
        engine.sweep(_double, [{"x": 99, "seed": 99}])
        assert engine.cache.hits == len(configs)

    def test_corrupt_entry_is_a_miss_and_gets_rewritten(self, tmp_path):
        spec = small_spec(4)
        engine = Engine(cache=str(tmp_path))
        engine.run(spec)
        path = tmp_path / f"{RunCache.record_key(spec)}.json"
        path.write_text("{not json")
        fresh = Engine(cache=str(tmp_path))
        record = fresh.run(spec)
        assert record.metrics["safe"]
        assert json.loads(path.read_text())["payload"]["value"]["digest"] == record.digest

    def test_ambiguous_function_names_are_never_cached(self, tmp_path):
        # Two different lambdas share the qualname "<lambda>" (and nested
        # functions share "...<locals>..."): caching them would let one serve
        # the other's rows.  They run fine — they just never hit the cache.
        configs = [{"x": 2, "seed": 0}]
        engine = Engine(cache=str(tmp_path))
        first = engine.sweep(lambda c: {"y": c["x"] * 10}, configs)
        second = engine.sweep(lambda c: {"y": c["x"] * 1000}, configs)
        assert first == [{"x": 2, "seed": 0, "y": 20}]
        assert second == [{"x": 2, "seed": 0, "y": 2000}]
        assert engine.cache.hits == 0 and len(engine.cache) == 0
        assert RunCache.function_name(lambda c: c) is None
        assert RunCache.function_name(_double) == f"{__name__}._double"

    def test_unserializable_payloads_are_not_cached(self, tmp_path):
        cache = RunCache(tmp_path)
        assert not cache.put("row-xyz", {"bad": object()})
        assert not cache.put("row-tuple", {"value": (1, 2)})  # would come back a list
        assert len(cache) == 0


class TestWorkerCrashHandling:
    def test_crash_names_the_inflight_scenarios_and_pool_heals(self):
        configs = [{"name": "boom", "seed": seed} for seed in range(4)]
        with WorkerPool(jobs=2) as pool:
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.map(_crash_on_seed_three, configs)
            assert "boom[seed=3]" in str(excinfo.value)
            assert "boom[seed=3]" in excinfo.value.candidates
            assert not pool.alive  # the broken pool was discarded...
            healed = pool.map(_double, [{"x": 1}, {"x": 2}])  # ...and respawned
            assert healed == [{"doubled": 2}, {"doubled": 4}]

    def test_idle_worker_death_is_wrapped_and_pool_heals(self):
        # A worker found dead *between* calls held no work, so nothing was
        # lost: the fleet replaces it and the call simply succeeds.
        import signal

        with WorkerPool(jobs=2) as pool:
            pool.map(_double, [{"x": 1}, {"x": 2}])  # spawn + warm
            before = pool.worker_pids()
            for pid in before:
                os.kill(pid, signal.SIGKILL)
            for pid in before:
                wait_until_dead(pid)  # SIGKILL is asynchronous
            healed = pool.map(_double, [{"x": s} for s in range(4)])
            assert healed == [{"doubled": 2 * s} for s in range(4)]
            assert pool.alive and not set(pool.worker_pids()) & set(before)

    def test_describe_item_formats(self):
        assert describe_item({"name": "e1", "seed": 7}) == "e1[seed=7]"
        assert describe_item(small_spec(3)) == "executor-test[seed=3]"
        assert describe_item({"seed": 2}) == "<unnamed>[seed=2]"
        assert describe_item(42) == "42"
