"""The supervised worker fleet, through both policies that sit on it.

Every fault case runs the same 8-config sweep (E1's runner at n=3, a few ms
per run; ``tests.helpers.faulty_run_one`` makes one config misbehave once)
through the warm :class:`WorkerPool` *and* the fabric :class:`Coordinator`:
the pool must raise exactly what the fault means and heal, the coordinator
must absorb it and still merge the bytes a fault-free run produces.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

from repro.analysis.runner import ParameterSweep, jsonl_line
from repro.errors import WorkerCrashError
from repro.fabric import execute_item, fold_digests, plan_sweep
from repro.fabric.coordinator import Coordinator
from repro.runtime import SerialExecutor, WorkerPool
from repro.runtime.fleet import Fleet, _serve, python_path
from repro.verify import _descendant_pids

from .helpers import faulty_run_one, serve_frozen, wait_until_dead

FAULTY = 5  # index of the config that misbehaves

#: A forked worker greets and reports within milliseconds, and the fork
#: server starts inside ``Process.start()``, before the deadline's clock: a
#: stall is detected in this long.
STALL_DEADLINE = 0.3


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


def test_busy_worker_stall_is_killed_by_the_progress_deadline(tmp_path) -> None:
    configs = tiny_configs(tmp_path, "sigstop")
    with WorkerPool(2) as pool:
        pool.fleet.progress_timeout = STALL_DEADLINE
        with pytest.raises(WorkerCrashError, match="stalled: no progress"):
            pool.map(faulty_run_one, configs)
        assert pool.fleet.stalls == 1
        assert not pool.alive

    rearm(configs)
    result = coordinate(configs, tmp_path / "state", progress_timeout=STALL_DEADLINE)
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
        first_generation = self._spawned < self.size
        monkeypatch.setattr(
            "repro.runtime.fleet._serve", serve_frozen if first_generation else _serve
        )
        original(self)

    monkeypatch.setattr(Fleet, "_spawn", spawn_frozen)
    with WorkerPool(2) as pool:
        pool.fleet.progress_timeout = STALL_DEADLINE
        assert pool.map(faulty_run_one, configs) == SerialExecutor().map(
            faulty_run_one, configs
        )
        assert pool.fleet.stalls == 2

    result = coordinate(configs, tmp_path / "state", progress_timeout=STALL_DEADLINE)
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
            os.kill(pid, signal.SIGKILL)  # idle: it just handed its chunk in
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
    resource_tracker.ensure_running()  # multiprocessing's own: it lives until exit
    bystanders = _descendant_pids()
    pool = WorkerPool(2)
    pool.map(faulty_run_one, configs)
    mine = set(pool.worker_pids())
    server = _descendant_pids() - bystanders - mine
    assert len(server) == 1 and len(mine) == 2 and mine <= _descendant_pids()  # its children
    pool.close()
    pool.close()
    # the last fleet to close stops the server: nothing it started is left
    assert not pool.alive and _descendant_pids() == bystanders

    coordinate(configs, tmp_path / "state")
    assert _descendant_pids() == bystanders

    fleet = Fleet(2)
    assert not fleet.pids()
    fleet.close()  # never started: nothing to stop
    assert _descendant_pids() == bystanders


FRESH_INTERPRETER = """
import sys
sys.path.insert(0, sys.argv[1])  # a bare checkout: only sys.path names the library
from collections import deque
from multiprocessing import resource_tracker
from pathlib import Path
from repro.runtime import WorkerPool
from repro.runtime.fleet import Fleet
from repro.verify import Report, _descendant_pids, _hygiene

report = Report()
with _hygiene(report, Path(sys.argv[2])):  # the first fleet of this interpreter
    with WorkerPool(2) as pool:
        assert pool.map(abs, [-1, -2, -3]) == [1, 2, 3]
assert report.ok, str(report)

resource_tracker.ensure_running()
bystanders = _descendant_pids()
first, second = Fleet(2), Fleet(2)
for fleet in (first, second):  # the second opens while the first holds its workers
    list(fleet.run(abs, deque([(0, [-1]), (1, [-2])])))
    assert len(fleet.pids()) == 2 and fleet.cold == 0, f"{fleet.cold} cold workers"
first.close()
second.close()
assert _descendant_pids() == bystanders, f"left behind: {_descendant_pids() - bystanders}"
"""


def test_workers_fork_from_a_preloaded_server_in_a_fresh_interpreter(tmp_path) -> None:
    """Without ``PYTHONPATH`` (how the benchmark runs a checkout) the fork server
    still preloads the library: every worker greets warm, nothing outlives the
    last ``close()``, and the verifier's hygiene fence stays empty."""
    src = python_path().split(os.pathsep)[0]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER, src, str(tmp_path / "fence")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""  # no finalizer traceback at exit either


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
