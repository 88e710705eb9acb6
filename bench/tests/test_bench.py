"""Tests of the benchmark's own machinery (collected by the tier-1 command)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import ROOT, fold, harness, workloads
from bench.tracing import Span, self_times

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_span_self_time_is_duration_minus_direct_children():
    spans = [
        Span("sweep", "runtime.engine", -1, 0.0, 10.0),
        Span("run", "sim.scheduler", 0, 1.0, 7.0),
        Span("check", "detectors.properties", 1, 2.0, 3.0),  # grandchild of sweep
        Span("emit", "runtime.engine", 0, 8.0, 9.5),
        Span("run", "sim.scheduler", -1, 20.0, 21.0),
    ]
    layers = self_times(spans)
    assert layers["runtime.engine"] == (pytest.approx(10.0 - 6.0 - 1.5 + 1.5), 2)
    assert layers["sim.scheduler"] == (pytest.approx(6.0 - 1.0 + 1.0), 2)
    assert layers["detectors.properties"] == (pytest.approx(1.0), 1)
    # Self times partition the time under the top-level spans.
    assert sum(seconds for seconds, _ in layers.values()) == pytest.approx(10.0 + 1.0)


def test_fold_maps_every_repro_file_to_one_repro_bucket():
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert len(sources) > 100
    for source in sources:
        bucket = fold.bucket_of(str(source))
        assert bucket in fold.BUCKETS and bucket != "fold.builtins_stdlib", source
    assert fold.bucket_of(str(ROOT / "src/repro/sim/events.py")) == "fold.sim.events"
    assert fold.bucket_of(str(ROOT / "src/repro/sim/scheduler.py")) == "fold.sim.scheduler"
    assert fold.bucket_of(str(ROOT / "src/repro/algorithms/heartbeat.py")) == "fold.algorithms"
    assert fold.bucket_of(str(ROOT / "src/repro/workloads/kv/replica.py")) == "fold.workloads.kv"
    assert fold.bucket_of(str(ROOT / "src/repro/workloads/churn.py")) == "fold.runtime"
    for outside in ("~", "<string>", str(ROOT / "bench" / "harness.py"), "/usr/lib/python3/heapq.py"):
        assert fold.bucket_of(outside) == "fold.builtins_stdlib"
    shares = fold.fold_shares({"fold.consensus": 3.0, "fold.sim.events": 1.0})
    assert shares == {"fold.consensus": 0.75, "fold.sim.events": 0.25}


def test_benchmark_json_meets_the_contract_schema():
    contract = harness.load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["bench"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert [entry["name"] for entry in contract["workloads"]] == list(workloads.WORKLOADS)
    for entry in contract["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"} and 0 < entry["bound"] <= 0.25
    for entry in contract["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in contract[section]
    ]
    assert len(names) == len(set(names)) and all(_NAME.match(name) for name in names)
    setup = next(entry for entry in contract["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.fixture(scope="module")
def smoke_results():
    return {
        name: harness.run_workload(name, seed=0, seconds=1.0, trace=True, smoke=True)
        for name in workloads.WORKLOADS
    }


def test_smoke_runs_pass_their_output_checks(smoke_results):
    for name, result in smoke_results.items():
        line = result["line"]
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, name
        assert result["meta"]["ops_retried"] == 0, name


def test_harness_emits_exactly_the_metrics_benchmark_json_names(smoke_results):
    contract = harness.load_contract()
    end_to_end = {entry["name"] for entry in contract["end_to_end"]}
    per_layer = {entry["name"] for entry in contract["per_layer"]}
    computed = set()
    for name, result in smoke_results.items():
        assert set(result["computed"]["end_to_end"]) == end_to_end, name
        assert set(result["line"]["metrics"]) == per_layer, name
        computed |= set(result["computed"]["per_layer"])
        shares = [
            metric["value"]
            for metric_name, metric in result["line"]["metrics"].items()
            if metric_name.startswith("fold.")
        ]
        expected = 1.0 if workloads.WORKLOADS[name].profiled else 0.0
        assert sum(shares) == pytest.approx(expected, abs=0.01), name
    # Nothing computed is silently dropped, nothing declared is never computed.
    assert computed == per_layer


def test_same_seed_same_inputs_and_digest_other_seed_other_inputs(tmp_path):
    def one_round(seed: int, tag: str):
        workload = workloads.make("kv_service", seed, smoke=True, workdir=tmp_path / tag)
        try:
            workload.begin_round()
            for _name, step in workload.steps():
                step()
            return workload.fingerprint, workload.end_round().digest
        finally:
            workload.close()

    assert one_round(3, "a") == one_round(3, "b")
    assert one_round(3, "c")[0] != one_round(4, "d")[0]
    assert (
        workloads.paper_plan(3, workloads.SMOKE_STRIDE).to_dict()
        != workloads.paper_plan(4, workloads.SMOKE_STRIDE).to_dict()
    )


def test_command_line_prints_the_result_as_its_last_line():
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "membership_scale",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    contract = harness.load_contract()
    assert list(line["metrics"]) == [entry["name"] for entry in contract["end_to_end"]]
    for entry in contract["end_to_end"]:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and metric["value"] > 0
