"""The measuring loop: calibrated steps, rounds for ``--seconds``, the result.

**Calibration.**  The reference box's speed drifts by ±12 % over tens of
seconds (a pure-Python loop timed in 15 s windows: 373–485 ms), more than
any bound worth setting.  So a short fixed Python loop (:func:`pyloop`) runs
between the timed steps, and every host time the benchmark reports is the
raw time scaled by ``REF_PYLOOP_S / (the loop's time next to that step)``:
seconds at the reference interpreter speed.  On a quiet reference box the
scale is 1; the raw loop time is printed (``calib.pyloop_ns``) so a machine
change shows next to the numbers it would have skewed.  Memory is not scaled.

**Rounds.**  A round runs every step of the workload once.  Rounds repeat
until ``--seconds`` have passed (at least two); each step's time is the
median over rounds and ``wall_s`` is the sum of those medians, so a burst
that hits one step of one round does not move the result.
"""

from __future__ import annotations

import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from . import OUT, ROOT, fold, probes, workloads
from .tracing import LAYERS, Tracer, self_times

__all__ = ["run_workload", "load_contract", "REF_PYLOOP_S"]

#: :func:`pyloop`'s median on the reference box (2 cores, CPython 3.11.7).
REF_PYLOOP_S = 0.0105
_PYLOOP_OPS = 20_000
SETUP_PROBES = 5
MIN_ROUNDS = 2


def pyloop() -> float:
    """Seconds for a fixed mix of heap, dict, tuple and float work.

    Timed in five chunks and reported as five times their median, so a
    scheduling burst that lands on one chunk does not skew the sample.
    """
    chunks = []
    for _ in range(5):
        started = perf_counter()
        heap: list = []
        table: dict = {}
        push, pop = heapq.heappush, heapq.heappop
        for index in range(_PYLOOP_OPS // 5):
            push(heap, ((index * 7919 % 1009) * 0.5, index))
            table[index & 255] = (index, heap[0][0] + 1.0)
            if index & 1:
                pop(heap)
        chunks.append(perf_counter() - started)
    return 5 * statistics.median(chunks)


def _scale(*loops: float) -> float:
    return REF_PYLOOP_S / statistics.fmean(loops)


@dataclass
class Rounds:
    """Per-step samples of a measuring loop, one entry per round."""

    scaled: dict[str, list[float]] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)
    loops: list[float] = field(default_factory=list)
    outcomes: list[workloads.Outcome] = field(default_factory=list)

    def medians(self, which: str = "scaled") -> dict[str, float]:
        return {step: statistics.median(values) for step, values in getattr(self, which).items()}

    @property
    def wall(self) -> float:
        return sum(self.medians().values())

    @property
    def failed(self) -> int:
        digests = {outcome.digest for outcome in self.outcomes}
        return sum(outcome.failed for outcome in self.outcomes) + (len(digests) - 1)


def run_rounds(workload: workloads.Workload, seconds: float, *, min_rounds: int = MIN_ROUNDS) -> Rounds:
    rounds = Rounds()
    deadline = perf_counter() + seconds
    rounds.loops.append(pyloop())
    while len(rounds.outcomes) < min_rounds or perf_counter() < deadline:
        workload.begin_round()
        for name, step in workload.steps():
            started = perf_counter()
            step()
            elapsed = perf_counter() - started
            rounds.loops.append(pyloop())  # scaled by the loop before and after the step
            rounds.raw.setdefault(name, []).append(elapsed)
            rounds.scaled.setdefault(name, []).append(elapsed * _scale(*rounds.loops[-2:]))
        rounds.outcomes.append(workload.end_round())
    return rounds


def probe_setup(name: str, seed: int, *, smoke: bool, count: int) -> list[float]:
    """Set the workload up ``count`` times, each in a fresh interpreter.

    The child reports the monotonic instant at which the workload object was
    built (imports, registries, plan/spec generation, pool spawn); the sample
    runs from just before the child was started to that instant.
    """
    command = [sys.executable, "-m", "bench", "setup", "--workload", name, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    samples = []
    for _ in range(count):
        before = pyloop()
        started = time.monotonic()
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        ready = float(child.stdout.split()[-1])
        samples.append((ready - started) * _scale(before, pyloop()))
    return samples


def _peak_rss_mb() -> float:
    """Max resident set over this process and every descendant it waited for."""
    peak = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return peak / 1024.0  # Linux reports KiB


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository
    return done.stdout.strip()


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))] if ordered else 0.0


def _trace_pass(
    workload: workloads.Workload, reference: Rounds, prepare_s: float, workdir: Path, smoke: bool
) -> tuple[dict[str, float], int, dict[str, dict[str, float]]]:
    """Every per-layer value (spans, fold, probes, calibration; see README),
    the failures of the traced and profiled rounds, and the fold per step."""
    values: dict[str, float] = {}
    medians = reference.medians()
    outcome = reference.outcomes[-1]
    values.update(workload.cells(medians, outcome, prepare_s))
    run_times = workload.run_times()
    run_scale = _scale(*reference.loops)
    values["runtime.engine.run_ms_p50"] = 1e3 * run_scale * _percentile(run_times, 0.50)
    values["runtime.engine.run_ms_p99"] = 1e3 * run_scale * _percentile(run_times, 0.99)
    values["wall_raw_s"] = sum(reference.medians("raw").values())

    # Spans: exactly one traced round.
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(workload, 0.0, min_rounds=1)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"trace-{workload.name}.jsonl")
    scale = _scale(*traced.loops)
    layers = self_times(tracer.spans)
    for layer in LAYERS:
        seconds, calls = layers.get(layer, (0.0, 0))
        values[f"{layer}.self_s"] = seconds * scale
        values[f"{layer}.calls"] = calls
    scheduler = layers.get("sim.scheduler", (0.0, 0))[0]
    values["sim.scheduler.events"] = tracer.events
    values["sim.scheduler.us_per_event"] = (
        1e6 * scale * scheduler / tracer.events if tracer.events else 0.0
    )
    values["sim.scheduler.stop_pred_share"] = (
        tracer.stop_pred_seconds / scheduler if scheduler else 0.0
    )
    certification = layers.get("workloads.kv.linearizability", (0.0, 0))[0]
    traced_wall = sum(sum(samples) for samples in traced.raw.values())
    values["workloads.kv.cert_share"] = certification / traced_wall
    values["workloads.kv.sim_ms_per_op"] = (
        1e3 * scale * scheduler / outcome.work if workload.work_unit == "ops" else 0.0
    )
    values["trace.overhead_pct"] = 100.0 * (
        sum(traced.medians().values()) / reference.wall - 1.0
    )
    values["trace.unattributed_share"] = 1.0 - tracer.attributed() / traced_wall
    failed = traced.failed

    # Module fold: one profiled round, step by step (the parallel legs do
    # their work in other processes, where a profiler here sees nothing).
    folded = dict.fromkeys(fold.BUCKETS, 0.0)
    per_step = {}
    if workload.profiled:
        workload.begin_round()
        for name, step in workload.steps():
            per_step[name] = fold.profile(step)
            for bucket, seconds in per_step[name].items():
                folded[bucket] += seconds
        failed += workload.end_round().failed
    values.update(fold.fold_shares(folded))

    before = pyloop()
    probed = probes.run_probes(workdir, smoke=smoke)
    probe_scale = _scale(before, pyloop())
    values.update({name: value * probe_scale for name, value in probed.items()})
    values["calib.pyloop_ns"] = 1e9 * statistics.median(reference.loops) / _PYLOOP_OPS
    return values, failed, {name: fold.fold_shares(seconds) for name, seconds in per_step.items()}


def run_workload(name: str, *, seed: int, seconds: float, trace: bool, smoke: bool) -> dict[str, Any]:
    """Measure one workload; returns the result line plus the report's extras."""
    contract = load_contract()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup = probe_setup(name, seed, smoke=smoke, count=1 if smoke else SETUP_PROBES)
        if not smoke:
            # Warm-up: the same code paths at toy size, so lazy imports and
            # first-call costs are not charged to the first timed round.
            warm = workloads.make(name, seed, smoke=True, workdir=workdir / "warm")
            try:
                warm.prepare()
                run_rounds(warm, 0.0, min_rounds=1)
            finally:
                warm.close()
        workload = workloads.make(name, seed, smoke=smoke, workdir=workdir / "run")
        try:
            started, before = perf_counter(), pyloop()
            workload.prepare()
            prepare_s = (perf_counter() - started) * _scale(before, pyloop())
            budget = 0.0 if smoke else seconds * (0.4 if trace else 1.0)
            rounds = run_rounds(workload, budget, min_rounds=1 if smoke or trace else MIN_ROUNDS)
            layer_values, trace_failed, fold_per_step = (
                _trace_pass(workload, rounds, prepare_s, workdir, smoke) if trace else ({}, 0, {})
            )
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcome = rounds.outcomes[-1]
    wall = rounds.wall
    measured = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "work_per_s": outcome.work / wall,
        "peak_rss_mb": _peak_rss_mb(),
    }
    failed = rounds.failed + trace_failed
    if trace:
        # Every declared per-layer metric is printed on every workload; a
        # layer that does not run on this one reads 0.
        metrics = {
            entry["name"]: {"value": layer_values.get(entry["name"], 0.0), "unit": entry["unit"]}
            for entry in contract["per_layer"]
        }
    else:
        metrics = {
            entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]}
            for entry in contract["end_to_end"]
        }
    attempted = sum(outcome.attempted for outcome in rounds.outcomes)
    return {
        "line": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "computed": {"end_to_end": sorted(measured), "per_layer": sorted(layer_values)},
        "meta": {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "smoke": smoke,
            "trace": trace,
            "rounds": len(rounds.outcomes),
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "calib.pyloop_ns": 1e9 * statistics.median(rounds.loops) / _PYLOOP_OPS,
            "work_unit": workload.work_unit,
            "inputs": workload.fingerprint,
            "digest": outcome.digest,
            "ops_attempted": attempted,
            "ops_failed": failed,
            "ops_retried": sum(outcome.retried for outcome in rounds.outcomes),
            "facts": outcome.facts,
            "setup_samples_s": setup,
            "step_seconds": {
                step: {"median": statistics.median(values), "min": min(values), "max": max(values)}
                for step, values in rounds.scaled.items()
            },
            "wall_raw_s": sum(rounds.medians("raw").values()),
            "fold_per_step": fold_per_step,
        },
    }
