"""Shared configuration for the micro-benchmark suite.

These ``pytest-benchmark`` files (run with ``pytest benchmarks/
--benchmark-only``) hold what the repo benchmark (``python3 -m bench run``)
declares out of scope: event-queue and broadcast micro rows, the real-TCP
detection rows, and the ring n=1,000 vs n=100 pair behind the scale-free
ratio gate.  End-to-end sweep, pool, fabric and KV throughput are measured by
``bench/`` and nowhere else.

After every benchmark run, benchmarks that set
``benchmark.extra_info["bench_core_key"]`` are folded into
``BENCH_core.json`` — median seconds per round and, when the benchmark
declares ``events_per_round``, median ns/event.  The file
(schema ``bench-core/2``) is written to the repository root (override with
the ``BENCH_CORE_JSON`` environment variable) and the committed copy is the
perf baseline CI *enforces* — ``benchmarks/compare_bench.py
--max-regression`` fails the build when a tracked median regresses past the
budget::

    PYTHONPATH=src python -m pytest benchmarks/bench_core_microbenchmarks.py \
        --benchmark-only                  # refreshes BENCH_core.json
    python benchmarks/compare_bench.py old.json BENCH_core.json
"""

from __future__ import annotations

import json
import os
import platform


def pytest_sessionfinish(session, exitstatus):
    """Fold tagged core benchmarks into BENCH_core.json."""
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None:
        return
    entries: dict[str, dict] = {}
    for bench in benchmark_session.benchmarks:
        extra = getattr(bench, "extra_info", None) or {}
        key = extra.get("bench_core_key")
        if not key:
            continue
        median_seconds = bench.stats.median
        entry: dict = {
            "test": bench.name,
            "median_seconds": median_seconds,
            "rounds": bench.stats.rounds,
        }
        events = extra.get("events_per_round")
        if events:
            entry["events_per_round"] = events
            entry["median_ns_per_event"] = median_seconds * 1e9 / events
        # Wall-clock rows (the real transport backend) carry their own
        # regression budget and the measured detection latency; the ring
        # scaling rows carry their scale and per-process load.  Pass those
        # through so compare_bench.py can gate each row on its own terms and
        # the baseline doubles as a recorded data point.
        for passthrough in (
            "kind",
            "max_regression_pct",
            "median_detection_ms",
            "mode",
            "n",
            "msgs_per_proc_round",
        ):
            if passthrough in extra:
                entry[passthrough] = extra[passthrough]
        entries[key] = entry
    if not entries:
        return
    target = os.environ.get(
        "BENCH_CORE_JSON", os.path.join(str(session.config.rootpath), "BENCH_core.json")
    )
    # Merge into the existing file: a filtered run (e.g. ``-k queue``) must
    # refresh only the benchmarks that actually ran, not clobber the rest of
    # the committed baseline.
    merged: dict[str, dict] = {}
    try:
        with open(target, encoding="utf-8") as handle:
            merged = dict(json.load(handle).get("benchmarks", {}))
    except (OSError, ValueError):
        pass
    merged.update(entries)
    payload = {
        "schema": "bench-core/2",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": {key: merged[key] for key in sorted(merged)},
    }
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nbench-core results written to {target}")
