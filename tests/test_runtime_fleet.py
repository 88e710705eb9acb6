"""The supervised worker fleet, through both policies that sit on it.

Every fault case runs the same 8-config sweep (E1's runner at n=3, a few ms
per run; ``tests.helpers.faulty_run_one`` makes one config misbehave once)
through the warm :class:`WorkerPool` *and* the fabric :class:`Coordinator`:
the pool must raise exactly what the fault means and heal, the coordinator
must absorb it and still merge the bytes a fault-free run produces.
"""

from __future__ import annotations

import signal
from pathlib import Path

import pytest

from repro.analysis.runner import ParameterSweep, jsonl_line
from repro.chaos.soak import _child_pids
from repro.errors import WorkerCrashError
from repro.fabric import execute_item, fold_digests, plan_sweep
from repro.fabric.coordinator import Coordinator
from repro.runtime import SerialExecutor, WorkerPool
from repro.runtime.fleet import Fleet

from .helpers import faulty_run_one, wait_until_dead

FAULTY = 5  # index of the config that misbehaves


def tiny_configs(tmp_path: Path, fault: str | None = None) -> list[dict]:
    sweep = ParameterSweep(
        {
            "n": [3],
            "distinct_ids": [1, 3],
            "gst": [2.0],
            "delta": [0.5, 1.0],
            "fixed_timeout": [False],
        },
        repetitions=2,
        base_seed=0,
    )
    configs = [dict(config, name="tiny") for config in sweep]
    assert len(configs) == 8
    if fault:
        configs[FAULTY].update(fault=fault, marker=str(tmp_path / f"{fault}.marker"))
    return configs


def tiny_plan(configs: list[dict]):
    return plan_sweep("tests.helpers.faulty_run_one", configs, name="tiny")


def coordinate(configs: list[dict], state: Path, **options):
    return Coordinator(tiny_plan(configs), state_dir=state, workers=2, **options).run()


def reference_bytes(configs: list[dict]) -> bytes:
    """What a serial, fault-free pass merges (run after the fault has fired)."""
    results = [execute_item(item) for item in tiny_plan(configs).items]
    return "".join(jsonl_line(result.row) for result in results).encode()


def rearm(configs: list[dict]) -> None:
    Path(configs[FAULTY]["marker"]).unlink()


# ----------------------------------------------------------------------
# a worker lost while it holds work
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fault", ["sigkill", "exit"])
def test_busy_worker_death(tmp_path, fault) -> None:
    configs = tiny_configs(tmp_path, fault)
    with WorkerPool(2) as pool:
        with pytest.raises(WorkerCrashError) as crash:
            pool.map(faulty_run_one, configs)
        # only the dead worker's own unfinished items are suspects
        assert crash.value.candidates == [f"tiny[seed={configs[FAULTY]['seed']}]"]
        assert len(pool.crash_history) == 1
        assert not pool.alive  # the fleet was discarded ...
        healed = pool.map(faulty_run_one, configs)  # ... and the next call respawns
        assert healed == SerialExecutor().map(faulty_run_one, configs)

    rearm(configs)
    result = coordinate(configs, tmp_path / "state")
    assert result.stats["worker_deaths"] == 1
    assert result.stats["requeued_chunks"] == 1
    assert not result.partial
    assert Path(result.merged_path).read_bytes() == reference_bytes(configs)


def test_busy_worker_stall_is_killed_by_the_progress_deadline(tmp_path, short_stall_deadline) -> None:
    configs = tiny_configs(tmp_path, "sigstop")
    with WorkerPool(2) as pool:
        pool.fleet.progress_timeout = 1.0
        with pytest.raises(WorkerCrashError, match="stalled: no progress"):
            pool.map(faulty_run_one, configs)
        assert pool.fleet.stalls == 1
        assert not pool.alive

    rearm(configs)
    result = coordinate(configs, tmp_path / "state", progress_timeout=1.0)
    assert result.stats["stalled_workers"] == 1
    assert result.stats["worker_deaths"] == 1
    assert result.stats["requeued_chunks"] == 1
    assert Path(result.merged_path).read_bytes() == reference_bytes(configs)


def test_stall_before_the_greeting_is_detected_and_costs_nothing(tmp_path, monkeypatch) -> None:
    """SIGSTOP between spawn and hello: the silent workers hold no chunk, so
    they are killed and replaced and the call completes as if nothing happened."""
    configs = tiny_configs(tmp_path)
    original = Fleet._spawn

    def spawn_frozen(self) -> None:
        original(self)
        if self._spawned <= self.size:  # every first-generation worker
            self.signal(self._spawned - 1, signal.SIGSTOP)

    monkeypatch.setattr(Fleet, "_spawn", spawn_frozen)
    with WorkerPool(2) as pool:
        pool.fleet.progress_timeout = 1.0
        assert pool.map(faulty_run_one, configs) == SerialExecutor().map(
            faulty_run_one, configs
        )
        assert pool.fleet.stalls == 2

    result = coordinate(configs, tmp_path / "state", progress_timeout=1.0)
    assert result.stats["stalled_workers"] == result.stats["worker_deaths"] == 2
    assert result.stats["requeued_chunks"] == 0
    assert Path(result.merged_path).read_bytes() == reference_bytes(configs)


# ----------------------------------------------------------------------
# the function fails, the worker lives
# ----------------------------------------------------------------------
def test_exception_inside_fn(tmp_path) -> None:
    configs = tiny_configs(tmp_path, "raise")
    with WorkerPool(2) as pool:
        pool.map(faulty_run_one, tiny_configs(tmp_path))  # warm
        workers = pool.worker_pids()
        with pytest.raises(ValueError, match="injected failure") as failure:
            pool.map(faulty_run_one, configs)
        assert "faulty_run_one" in str(failure.value.__cause__)  # the remote traceback
        # an exception is not a crash: no history, and the pool is usable
        assert pool.crash_history == []
        assert pool.map(faulty_run_one, configs) == SerialExecutor().map(
            faulty_run_one, configs
        )
        assert set(workers) & set(pool.worker_pids())

    rearm(configs)
    result = coordinate(configs, tmp_path / "state")
    assert result.stats["worker_deaths"] == 0
    assert result.stats["requeued_chunks"] == 1
    assert Path(result.merged_path).read_bytes() == reference_bytes(configs)


def test_unpicklable_result(tmp_path) -> None:
    configs = tiny_configs(tmp_path, "unpicklable")
    with WorkerPool(2) as pool:
        # the worker reports the pickling failure instead of dying on it
        with pytest.raises(Exception, match="(?i)pickle"):
            pool.map(faulty_run_one, configs)
        assert pool.crash_history == []

    # the coordinator's callable canonicalises every row through JSON before
    # it reaches the pipe, so the same outcome arrives as its ``str``
    rearm(configs)
    result = coordinate(configs, tmp_path / "state")
    assert result.stats["worker_deaths"] == result.stats["requeued_chunks"] == 0
    assert "<lambda>" in result.rows[FAULTY]["converged"]


# ----------------------------------------------------------------------
# a worker lost while it holds nothing
# ----------------------------------------------------------------------
def test_death_while_idle_loses_nothing(tmp_path, meddle) -> None:
    configs = tiny_configs(tmp_path)
    killed: list[int] = []

    def kill_the_first_worker_to_finish_a_chunk(fleet, event) -> None:
        if event.done and not killed:
            pid = fleet.pids()[event.worker]
            fleet.signal(event.worker, signal.SIGKILL)  # idle: it just handed its chunk in
            wait_until_dead(pid)
            killed.append(pid)

    meddle(kill_the_first_worker_to_finish_a_chunk)
    with WorkerPool(2) as pool:
        assert pool.map(faulty_run_one, configs) == SerialExecutor().map(
            faulty_run_one, configs
        )
        assert pool.crash_history == [] and killed[0] not in pool.worker_pids()

    killed.clear()
    result = coordinate(configs, tmp_path / "state")
    assert killed and result.stats["worker_deaths"] == 1
    assert result.stats["requeued_chunks"] == 0
    assert Path(result.merged_path).read_bytes() == reference_bytes(configs)


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_close_twice_and_no_child_is_left(tmp_path) -> None:
    configs = tiny_configs(tmp_path)
    pool = WorkerPool(2)
    pool.map(faulty_run_one, configs)  # also starts multiprocessing's tracker
    mine = set(pool.worker_pids())
    assert len(mine) == 2 and mine <= _child_pids()
    bystanders = _child_pids() - mine
    pool.close()
    pool.close()
    assert not pool.alive and _child_pids() == bystanders

    coordinate(configs, tmp_path / "state")
    assert _child_pids() == bystanders

    fleet = Fleet(2)
    assert not fleet.pids()
    fleet.close()  # never started: nothing to stop
    assert _child_pids() == bystanders


# ----------------------------------------------------------------------
# one plan, every way of executing it
# ----------------------------------------------------------------------
def test_serial_pool_and_coordinator_agree(tmp_path) -> None:
    """Same plan → identical rows, identical merged bytes, identical digests."""
    plan = tiny_plan(tiny_configs(tmp_path))
    outcomes = {}
    with WorkerPool(2) as pool:
        for name, executor in (("serial", SerialExecutor()), ("pool", pool)):
            results = executor.map(execute_item, plan.items)
            outcomes[name] = (
                [dict(result.row) for result in results],
                "".join(jsonl_line(result.row) for result in results).encode(),
                f"{fold_digests(d for result in results for d in result.digests):016x}",
            )
    for workers in (1, 3):
        result = Coordinator(plan, state_dir=tmp_path / f"w{workers}", workers=workers).run()
        outcomes[f"fabric-{workers}"] = (
            result.rows,
            Path(result.merged_path).read_bytes(),
            result.experiment_digests()["tiny"],
        )
    assert len(outcomes["serial"][0]) == len(plan)
    for name, outcome in outcomes.items():
        assert outcome == outcomes["serial"], name
