"""The four workloads: inputs from a seed, one timed round, its output checks.

A workload is a fixed batch.  Building it (``__init__``) is the set-up the
``setup_s`` metric times; a *round* runs the whole batch once, as an ordered
list of *steps* the harness times one by one (a step is one engine call, one
fabric run or one simulation, short enough for the calibration loop between
steps to follow the box's drift); ``end_round`` checks every output of the
round and counts what failed.  Rounds of one instance repeat the same work,
so their digests must be identical — that is one of the checks.

Everything goes through public entry points: ``plan_experiments``,
``Engine.sweep`` / ``Engine.run``, ``executor_for``, ``Coordinator``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby
from pathlib import Path
from typing import Any, Callable, Iterable

import repro.experiments  # noqa: F401  (importing registers E1–E12)
from repro.fabric import Coordinator, FabricPlan, fold_digests, plan_experiments
from repro.fabric.work import resolve_function
from repro.runtime import (
    Engine,
    SerialExecutor,
    asynchronous,
    crashes_at,
    executor_for,
    minority,
    run_with_digest_capture,
    scenario,
)

__all__ = ["WORKLOADS", "Outcome", "Workload", "make"]

#: Pool ``jobs`` and fabric ``workers``: the reference box has two cores.
WORKERS = 2


@dataclass
class Outcome:
    """What one round produced: op counts, work done, digest, printable facts."""

    attempted: int
    failed: int
    work: float
    digest: str
    retried: int = 0
    facts: dict[str, Any] = field(default_factory=dict)


class DigestCapture:
    """Executor wrapper: every simulation's digest lands in ``sink``, in input order.

    The same mechanism as ``benchmarks/digest_manifest.py``: the dispatched
    function is wrapped with the public ``run_with_digest_capture`` (one list
    append per simulation), so it works through a ``spawn`` pool too.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.jobs = inner.jobs
        self.sink: list[int] = []

    def imap(self, fn, items):
        tasks = [(fn, item) for item in items]
        for result, digests in self.inner.imap(run_with_digest_capture, tasks):
            self.sink.extend(digests)
            yield result

    def map(self, fn, items):
        return list(self.imap(fn, items))

    def close(self) -> None:
        self.inner.close()


def _hex(digests: Iterable[int]) -> str:
    return f"{fold_digests(digests):016x}"


def _sha(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Workload:
    """Interface the harness drives; see the module docstring."""

    name = ""
    #: What ``work_per_s`` counts on this workload.
    work_unit = ""

    def __init__(self, seed: int, *, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        #: Per step of the last round: ``perf_counter`` at its start and at
        #: each completed run.
        self.arrivals: list[list[float]] = []

    #: A hash of the generated inputs (same seed → same value).
    fingerprint = ""
    #: Whether a profiler in this process sees the round's work.
    profiled = True

    def prepare(self) -> None:
        """Untimed harness-side work that is not the system's set-up."""

    def begin_round(self) -> None:
        """Reset per-round output files and sinks (untimed)."""

    def steps(self) -> list[tuple[str, Callable[[], None]]]:
        raise NotImplementedError

    def end_round(self) -> Outcome:
        raise NotImplementedError

    def cells(
        self, seconds: dict[str, float], outcome: Outcome, prepare_s: float
    ) -> dict[str, float]:
        """Per-cell rates (per-layer metrics) from the steps' and ``prepare``'s seconds."""
        return {}

    def run_times(self) -> list[float]:
        """Raw host seconds of every run of the last round (serial paths)."""
        return [
            later - earlier
            for step in self.arrivals
            for earlier, later in zip(step, step[1:])
        ]

    def close(self) -> None:
        """Stop every process the workload started."""


# ----------------------------------------------------------------------
# paper_sweep / sweep_dispatch: the full-mode plan of E1, E4, E5, E7, E9
# ----------------------------------------------------------------------
PAPER_EXPERIMENTS = ("E1", "E4", "E5", "E7", "E9")
#: Every 4th item of the 1,565-run full-mode plan (392 runs): the whole plan
#: takes ~10 s serially, which would leave one sample per run of the
#: benchmark.  The plan lists each cell's repetitions (3, 5, 4, 40, 4 per
#: experiment) next to each other, so a stride of 4 thins the repetitions and
#: keeps the cell mix: every cell of E4, E5, E7 and E9 and three in four of E1.
PAPER_STRIDE = 4
SMOKE_STRIDE = 60


def paper_plan(seed: int, stride: int) -> FabricPlan:
    """The strided sub-plan, re-indexed so the fabric can journal against it."""
    full = plan_experiments(PAPER_EXPERIMENTS, quick=False, seed=seed)
    items = [
        replace(item, index=index)
        for index, item in enumerate(full.items[::stride])
    ]
    if any(item.kind != "sweep" for item in items):
        raise RuntimeError("the paper experiments are expected to dispatch sweep items only")
    return FabricPlan(items=items, experiments=full.experiments, quick=False, seed=seed)


class EngineLeg:
    """One Engine replaying the plan experiment by experiment, digests captured.

    Each plan item names its experiment's module-level ``_run_one`` and its
    config, so a group of items is dispatched exactly as the experiment
    itself would dispatch it: ``engine.sweep(run_one, configs)`` — chunking,
    row merge and incremental JSONL emission included.
    """

    def __init__(self, plan: FabricPlan, executor, jsonl: Path) -> None:
        self.jsonl = jsonl
        self.capture = DigestCapture(executor)
        #: Per step: ``perf_counter`` at its start and at each emitted row, so
        #: consecutive differences are per-run host times.
        self.arrivals: list[list[float]] = []
        self.engine = Engine(
            self.capture,
            jsonl_path=str(jsonl),
            progress=lambda _row: self.arrivals[-1].append(time.perf_counter()),
        )
        self.groups = {
            experiment: list(items)
            for experiment, items in groupby(plan.items, key=lambda item: item.experiment)
        }
        self.digests: dict[str, str] = {}

    def reset(self) -> None:
        self.jsonl.unlink(missing_ok=True)
        self.capture.sink.clear()
        self.arrivals.clear()
        self.digests = {}

    def run(self, experiment: str) -> None:
        before = len(self.capture.sink)
        self.arrivals.append([time.perf_counter()])
        for _call, items in groupby(self.groups[experiment], key=lambda item: item.call):
            items = list(items)
            run_one = resolve_function(items[0].payload["fn"])
            self.engine.sweep(run_one, [item.payload["config"] for item in items])
        self.digests[experiment] = _hex(self.capture.sink[before:])

    def steps(self, prefix: str = "") -> list[tuple[str, Callable[[], None]]]:
        return [(prefix + name, partial(self.run, name)) for name in self.groups]

    def output(self) -> bytes:
        return self.jsonl.read_bytes() if self.jsonl.exists() else b""

    def close(self) -> None:
        self.engine.close()


def _check_rows(output: bytes, expected: int) -> tuple[int, int]:
    """``(failed, live)``: missing or unsafe rows fail; liveness is only recorded.

    Safety (agreement + validity) is unconditional in the paper; deciding or
    converging inside a horizon is not (at seed 0 full E1 converges in 2 of 3
    seeds on four n=8/gst=60 cells), so it is counted, never asserted.
    """
    rows = [json.loads(line) for line in output.splitlines()]
    failed = abs(expected - len(rows))
    failed += sum(1 for row in rows if row.get("safe") is False)
    live = sum(1 for row in rows if row.get("decided", row.get("converged")))
    return failed, live


def _differing_lines(left: bytes, right: bytes) -> int:
    a, b = left.splitlines(), right.splitlines()
    return abs(len(a) - len(b)) + sum(1 for x, y in zip(a, b) if x != y)


class PaperSweep(Workload):
    name = "paper_sweep"
    work_unit = "runs"

    def __init__(self, seed: int, *, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke=smoke, workdir=workdir)
        self.plan = paper_plan(seed, SMOKE_STRIDE if smoke else PAPER_STRIDE)
        self.fingerprint = _sha([item.to_dict() for item in self.plan.items])
        self.leg = EngineLeg(self.plan, SerialExecutor(), workdir / "serial.jsonl")
        self.arrivals = self.leg.arrivals

    def begin_round(self) -> None:
        self.leg.reset()

    def steps(self):
        return self.leg.steps()

    def end_round(self) -> Outcome:
        output = self.leg.output()
        failed, live = _check_rows(output, len(self.plan))
        return Outcome(
            attempted=len(self.plan),
            failed=failed,
            work=len(self.plan),
            digest=_hex(self.leg.capture.sink),
            facts={
                "jsonl_sha256": hashlib.sha256(output).hexdigest()[:16],
                "experiment_digests": dict(self.leg.digests),
                "live_runs": live,
            },
        )

    def cells(self, seconds, outcome, prepare_s):
        return {"runs_per_s": len(self.plan) / sum(seconds.values())}

    def close(self) -> None:
        self.leg.close()


class SweepDispatch(Workload):
    """The same plan through the warm pool, then the fabric, then a resume."""

    name = "sweep_dispatch"
    work_unit = "runs"
    profiled = False  # the work happens in the pool's and the fabric's processes

    def __init__(self, seed: int, *, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke=smoke, workdir=workdir)
        self.stride = SMOKE_STRIDE if smoke else PAPER_STRIDE
        self.plan = paper_plan(seed, self.stride)
        self.fingerprint = _sha([item.to_dict() for item in self.plan.items])
        self.state = workdir / "fabric"
        self.pool = EngineLeg(self.plan, executor_for(WORKERS), workdir / "pool.jsonl")
        # Spawning and warming the pool is set-up (``setup_s`` shows it), not
        # the timed leg; the sleeps keep one worker from taking every task.
        self.pool.engine.map(time.sleep, [0.05] * (4 * WORKERS))
        self.fabric = self.resumed = None

    def prepare(self) -> None:
        # The serial reference the two parallel paths must reproduce byte for
        # byte: harness-side verification, so neither set-up nor timed.
        leg = EngineLeg(self.plan, SerialExecutor(), self.workdir / "serial.jsonl")
        leg.reset()
        for experiment in leg.groups:
            leg.run(experiment)
        self.reference, self.reference_digests = leg.output(), dict(leg.digests)
        self.reference_failed, self.live = _check_rows(self.reference, len(self.plan))
        self.arrivals = leg.arrivals

    def begin_round(self) -> None:
        self.pool.reset()
        shutil.rmtree(self.state, ignore_errors=True)
        self.fabric = self.resumed = None

    def _fabric(self) -> None:
        # Planning is part of what a fabric user waits for.
        plan = paper_plan(self.seed, self.stride)
        self.fabric = Coordinator(plan, state_dir=self.state, workers=WORKERS).run()

    def _resume(self) -> None:
        self.resumed = Coordinator(state_dir=self.state, workers=WORKERS).run()

    def steps(self):
        return self.pool.steps("pool:") + [("fabric", self._fabric), ("resume", self._resume)]

    def end_round(self) -> Outcome:
        reference, digests = self.reference, self.reference_digests
        pooled = self.pool.output()
        merged = self.fabric.merged_path.read_bytes()
        failed = self.reference_failed
        failed += _differing_lines(pooled, reference) + _differing_lines(merged, reference)
        for leg_digests in (self.pool.digests, self.fabric.experiment_digests()):
            failed += sum(
                len(self.pool.groups[name])
                for name in digests
                if leg_digests.get(name) != digests[name]
            )
        stats = self.fabric.stats
        failed += len(self.fabric.quarantined) + (0 if self.fabric.digests_complete else 1)
        failed += self.resumed.stats["dispatched"]  # a resume must execute nothing
        failed += _differing_lines(self.resumed.merged_path.read_bytes(), reference)
        journal = sum(path.stat().st_size for path in (self.state / "shards").glob("*.jsonl"))
        return Outcome(
            attempted=2 * len(self.plan),
            failed=failed,
            retried=stats["requeued_chunks"] + stats["bisected_chunks"],
            work=2 * len(self.plan),
            digest=self.fabric.manifest()["FULL"],
            facts={
                "jsonl_sha256": hashlib.sha256(reference).hexdigest()[:16],
                "experiment_digests": digests,
                "live_runs": self.live,
                "fabric_stats": dict(stats),
                "journal_bytes_per_item": journal / len(self.plan),
            },
        )

    def cells(self, seconds, outcome, prepare_s):
        runs = len(self.plan)
        pool = sum(value for name, value in seconds.items() if name.startswith("pool:"))
        serial = runs / prepare_s  # the serial reference pass
        return {
            "runs_per_s": serial,
            "pool_runs_per_s": runs / pool,
            "fabric_runs_per_s": runs / seconds["fabric"],
            # How much of the two cores each parallel path turns into throughput.
            "runtime.executors.pool_efficiency": runs / pool / (WORKERS * serial),
            "fabric.coordinator.efficiency": runs / seconds["fabric"] / (WORKERS * serial),
            "fabric.plan.items": runs,
            "fabric.coordinator.resume_s": seconds["resume"],
            "fabric.coordinator.journal_bytes_per_item": outcome.facts["journal_bytes_per_item"],
            "fabric.coordinator.retries": outcome.retried,
        }

    def close(self) -> None:
        self.pool.close()


# ----------------------------------------------------------------------
# kv_service and membership_scale: a few long declarative runs
# ----------------------------------------------------------------------
class SpecRuns(Workload):
    """A workload whose round is one ``Engine.run`` per named spec."""

    def __init__(self, seed: int, *, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke=smoke, workdir=workdir)
        self.specs = self.build_specs()
        self.fingerprint = _sha({name: spec.to_dict() for name, spec in self.specs.items()})
        self.capture = DigestCapture(SerialExecutor())
        self.engine = Engine(self.capture)
        self.records: dict[str, Any] = {}

    def build_specs(self) -> dict[str, Any]:
        raise NotImplementedError

    def begin_round(self) -> None:
        self.capture.sink.clear()
        self.records = {}
        self.arrivals.clear()

    def _run(self, name: str) -> None:
        started = time.perf_counter()
        self.records[name] = self.engine.run(self.specs[name])
        self.arrivals.append([started, time.perf_counter()])

    def steps(self):
        return [(name, partial(self._run, name)) for name in self.specs]

    def close(self) -> None:
        self.engine.close()


#: ``cell: (clients, skew, fault)``.  Sized below the certification cliff:
#: with zipf keys the Wing&Gong search takes 0.05–0.26 s at 14 clients,
#: 0.14–0.6 s at 16 and 3–12 s at 24 depending on the seed (``lin_undecided``
#: at seed 4), and a lossy cell completes 9–32 operations depending on the
#: seed (the paper's algorithms never retransmit), so neither can carry a
#: steady rate.
KV_CELLS = {
    "kv_zipf": (14, "zipf", "none"),
    "kv_crash": (8, "zipf", "crash"),
    "kv_uniform": (16, "uniform", "none"),
}
KV_OPS_PER_CLIENT = 25


class KVService(SpecRuns):
    """E10-shaped runs: 5 replicas over 3 ids, simulated closed-loop clients."""

    name = "kv_service"
    work_unit = "ops"

    def build_specs(self):
        specs = {}
        for name, (clients, skew, fault) in KV_CELLS.items():
            build = (
                scenario(name)
                .homonyms([2, 2, 1])
                .detectors("HOmega", stabilization=10.0)
                .kv(
                    clients=2 if self.smoke else clients,
                    ops_per_client=3 if self.smoke else KV_OPS_PER_CLIENT,
                    skew=skew,
                    think_time=1.0,
                    key_space=6,
                )
                .horizon(6000.0)
                .seed(self.seed)
            )
            if fault == "crash":
                build = build.crashes(minority(at=12.0, count=1))
            specs[name] = build.build()
        return specs

    def end_round(self) -> Outcome:
        failed = 0
        facts = {}
        for name, record in self.records.items():
            metrics = record.metrics
            certified = (
                metrics["linearizable"]
                and metrics["lin_undecided"] == 0
                and metrics["lin_violations"] == 0
            )
            failed += 0 if certified else 1
            facts[name] = {
                "ops_completed": metrics["ops_completed"],
                "ops_issued": metrics["ops_issued"],
                "sim_latency_p50": metrics["latency_p50"],
                "sim_latency_p99": metrics["latency_p99"],
            }
        failed += len(self.specs) - len(self.records)
        return Outcome(
            attempted=len(self.specs),
            failed=failed,
            work=sum(record.metrics["ops_completed"] for record in self.records.values()),
            digest=_hex(self.capture.sink),
            facts=facts,
        )

    def cells(self, seconds, outcome, prepare_s):
        return {
            f"{name}_ops_per_s": outcome.facts[name]["ops_completed"] / seconds[name]
            for name in self.specs
        }


#: ``cell: (topology, n, degree, heartbeat timeout)``: the E12 detection run
#: (unique ids, async latency [0.01, 0.2], one crash at t=10) three ways.
MEMBERSHIP_CELLS = {
    "ring": ("ring", 1000, 3, 6.0),
    "gossip": ("gossip", 300, 3, 12.0),
    "mesh": ("full_mesh", 24, 0, 6.0),
}
SMOKE_MEMBERSHIP_N = {"ring": 30, "gossip": 30, "mesh": 6}
_CRASH_AT = 10.0


class MembershipScale(SpecRuns):
    name = "membership_scale"
    work_unit = "copies"

    def build_specs(self):
        specs = {}
        for name, (mode, n, degree, timeout) in MEMBERSHIP_CELLS.items():
            if self.smoke:
                n = SMOKE_MEMBERSHIP_N[name]
            build = (
                scenario(f"{name}-n{n}")
                .processes(n)
                .unique_ids()
                .timing(asynchronous(min_latency=0.01, max_latency=0.2))
                .crashes(crashes_at({n - 1: _CRASH_AT}))
                .program("heartbeat", hb_interval=1.0, hb_timeout=timeout)
                .horizon(_CRASH_AT + timeout + 8.0)
                .seed(self.seed)
            )
            if mode == "full_mesh":
                build = build.check("hb_detection")
            else:
                key = "successors" if mode == "ring" else "fanout"
                build = build.topology(mode, **{key: degree}).check("topo_detection")
            specs[name] = build.build()
        return specs

    @staticmethod
    def _check_of(name: str) -> str:
        return "hb_detection" if name == "mesh" else "topo_detection"

    def end_round(self) -> Outcome:
        failed = 0
        facts = {}
        for name, record in self.records.items():
            metrics, check = record.metrics, self._check_of(name)
            detected = (
                metrics[f"{check}_ok"]
                and metrics[f"{check}_missed"] == 0
                and metrics.get(f"{check}_false_suspicions", 0) == 0
            )
            failed += 0 if detected else 1
            facts[name] = {
                "copies_sent": metrics[f"{check}_copies_sent"],
                "sim_detection_latency": metrics[f"{check}_median_latency"],
            }
        failed += len(self.specs) - len(self.records)
        return Outcome(
            attempted=len(self.specs),
            failed=failed,
            work=sum(cell["copies_sent"] for cell in facts.values()),
            digest=_hex(self.capture.sink),
            facts=facts,
        )

    def cells(self, seconds, outcome, prepare_s):
        return {
            f"{name}_us_per_copy": 1e6 * seconds[name] / outcome.facts[name]["copies_sent"]
            for name in self.specs
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperSweep, SweepDispatch, KVService, MembershipScale)
}


def make(name: str, seed: int, *, smoke: bool, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, smoke=smoke, workdir=workdir)
