"""Tests for the Engine, executors, RunRecord, and ParameterSweep polish."""

from __future__ import annotations

import json

import pytest

from repro.analysis.runner import ParameterSweep
from repro.consensus import HOmegaMajorityConsensus, validate_consensus
from repro.detectors import CLASSES
from repro.errors import ConfigurationError
from repro.runtime import (
    Engine,
    RunRecord,
    ScenarioSpec,
    SerialExecutor,
    WorkerPool,
    asynchronous,
    execute_spec,
    executor_for,
    minority,
    scenario,
    simulate_spec,
)
from repro.sim import AsynchronousTiming, Simulation, build_system
from repro.sim.failures import FailurePattern
from repro.workloads.homonymy import membership_with_distinct_ids


def small_spec(seed: int = 0) -> ScenarioSpec:
    return (
        scenario("engine-test")
        .processes(4)
        .distinct_ids(2)
        .crashes(minority(at=6.0, count=1))
        .detectors("HOmega", "HSigma", stabilization=10.0)
        .consensus("homega_majority")
        .horizon(300.0)
        .seed(seed)
        .build()
    )


def _double(config: dict) -> dict:
    return {"doubled": config["x"] * 2}


class TestExecutors:
    def test_executor_for_picks_the_right_kind(self):
        assert isinstance(executor_for(None), SerialExecutor)
        assert isinstance(executor_for(1), SerialExecutor)
        assert isinstance(executor_for(2), WorkerPool)

    def test_parallel_executor_rejects_nonpositive_jobs(self):
        with pytest.raises(Exception):
            WorkerPool(0)

    def test_parallel_map_preserves_input_order(self):
        items = [{"x": value} for value in range(20)]
        with WorkerPool(2) as pool:
            results = pool.map(_double, items)
        assert [row["doubled"] for row in results] == [2 * value for value in range(20)]


class TestEngine:
    def test_serial_and_parallel_records_are_identical(self):
        specs = [small_spec(seed) for seed in range(6)]
        serial = Engine().run_many(specs)
        parallel = Engine(jobs=2).run_many(specs)
        assert serial == parallel
        assert all(record.metrics["safe"] for record in serial)

    def test_sweep_rows_identical_serial_vs_parallel(self):
        sweep = ParameterSweep({"x": [1, 2, 3, 4]}, repetitions=2)
        serial_rows = Engine().sweep(_double, sweep)
        parallel_rows = Engine(jobs=2).sweep(_double, sweep)
        assert serial_rows == parallel_rows
        assert serial_rows[0] == {"x": 1, "seed": 0, "doubled": 2}
        assert "repetition" not in serial_rows[0]

    def test_run_sweep_builds_specs_from_configs(self):
        sweep = ParameterSweep({"n": [4]}, repetitions=2)
        rows = Engine().run_sweep(lambda config: small_spec(config["seed"]), sweep)
        assert len(rows) == 2
        assert all(row["decided"] for row in rows)
        assert {row["seed"] for row in rows} == {0, 1}

    def test_jsonl_emission(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        record = Engine(jsonl_path=str(log)).run(small_spec())
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["scenario"] == "engine-test"
        assert lines[0]["metrics"]["decided"] == record.metrics["decided"]

    def test_engine_rejects_executor_and_jobs_together(self):
        with pytest.raises(ValueError):
            Engine(SerialExecutor(), jobs=2)

    def test_a_spec_measures_the_run_a_hand_wired_system_does(self):
        """Declarative dispatch must not change what is measured: the same
        scenario assembled inline from ``build_system`` + ``Simulation`` (same
        seed, so same RNG streams) yields the metrics ``execute_spec`` reports."""
        n, horizon, seed, stabilization = 5, 300.0, 7, 10.0
        spec = (
            scenario("hand-wired-twin")
            .processes(n)
            .distinct_ids(3)
            .crashes(minority(at=6.0, count=1))
            .detectors("HOmega", "HSigma", stabilization=stabilization)
            .consensus("homega_majority")
            .horizon(horizon)
            .seed(seed)
            .build()
        )
        membership = membership_with_distinct_ids(n, 3)
        proposals = {process: f"value-{process.index}" for process in membership.processes}
        crash_schedule = spec.crashes.build(membership)
        system = build_system(
            membership=membership,
            timing=AsynchronousTiming(min_latency=0.1, max_latency=2.0),
            program_factory=lambda pid, identity: HOmegaMajorityConsensus(
                proposals[pid], n=membership.size
            ),
            crash_schedule=crash_schedule,
            detectors={
                "HOmega": lambda services: CLASSES["HOmega"].oracle(
                    services, stabilization_time=stabilization, noise_period=5.0
                ),
                "HSigma": lambda services: CLASSES["HSigma"].oracle(
                    services, stabilization_time=stabilization
                ),
            },
            seed=seed,
        )
        trace = Simulation(system).run(
            until=horizon, stop_when=lambda sim: sim.all_correct_decided()
        )
        verdict = validate_consensus(trace, FailurePattern(membership, crash_schedule), proposals)
        assert dict(execute_spec(spec).metrics) == {
            "decided": verdict.termination_ok,
            "safe": verdict.validity_ok and verdict.agreement_ok,
            "decision_time": verdict.last_decision_time,
            "rounds": verdict.max_decision_round,
            "broadcasts": trace.broadcast_invocations,
            "message_copies": trace.message_copies_sent,
        }


    def test_simulate_spec_sends_a_real_backend_spec_to_execute_spec(self):
        spec = (
            scenario("real-refused")
            .processes(3)
            .unique_ids()
            .timing(asynchronous(min_latency=0.005, max_latency=0.05))
            .program("heartbeat")
            .backend("real")
            .horizon(15.0)
            .build()
        )
        with pytest.raises(ConfigurationError, match=r"backend='real': run it with execute_spec"):
            simulate_spec(spec)


class TestRunRecord:
    def test_round_trip(self):
        record = execute_spec(small_spec(3))
        assert RunRecord.from_dict(record.to_dict()) == record
        assert record.seed == 3
        assert record.config == small_spec(3).to_dict()

    def test_row_flattens_scalars_and_metrics(self):
        record = RunRecord(
            scenario="s", seed=1, config={"n": 5, "nested": {"drop": 1}}, metrics={"ok": True}
        )
        assert record.row() == {"n": 5, "ok": True}


class TestParameterSweepPolish:
    def test_len_counts_combinations_times_repetitions(self):
        sweep = ParameterSweep({"a": [1, 2, 3], "b": [True, False]}, repetitions=4)
        assert len(sweep) == 24
        assert len(list(sweep)) == 24

    def test_empty_parameter_space_counts_repetitions(self):
        sweep = ParameterSweep({}, repetitions=3)
        assert len(sweep) == 3

    def test_seed_spacing_never_collides(self):
        """Regression: combo/repetition seed formula assigns unique seeds."""
        sweep = ParameterSweep(
            {"a": list(range(7)), "b": list(range(5)), "c": [True, False]},
            repetitions=9,
            base_seed=123,
        )
        seeds = [config["seed"] for config in sweep]
        assert len(seeds) == len(sweep)
        assert len(set(seeds)) == len(seeds)
        # Seeds form a contiguous block, so sweeps with disjoint base seeds
        # spaced by len(sweep) never overlap either.
        assert min(seeds) == 123
        assert max(seeds) == 123 + len(sweep) - 1

    def test_run_with_executor_matches_plain_run(self):
        sweep = ParameterSweep({"x": [1, 2, 3]}, repetitions=2)
        with Engine(jobs=2) as pooled:
            assert Engine().sweep(_double, sweep) == pooled.sweep(_double, sweep)
