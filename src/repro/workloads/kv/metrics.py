"""Client-visible service metrics computed from a KV run trace.

Everything is derived offline from the deterministic trace: operation
latencies (paired ``kv.op`` / ``kv.done`` records), throughput, replication
progress (``kv.commit`` records), staleness of local-mode reads against the
authoritative commit timeline, and the linearizability verdict.  The result
is a flat dict of JSON-safe scalars so it can ride in ``RunRecord.metrics``
through sweeps, JSONL reports, caching, and streaming unchanged.
"""

from __future__ import annotations

from typing import Any

from ...sim.trace import RunTrace
from .commands import ReplicatedKV, decode_command
from .linearizability import check_history, history_from_trace

__all__ = ["kv_metrics", "percentile"]


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile; ``0.0`` for an empty series."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def _commit_timeline(trace: RunTrace) -> dict[int, tuple[float, str]]:
    """``slot -> (earliest apply time across replicas, committed command)``."""
    commits: dict[int, tuple[float, str]] = {}
    for process in trace.processes_with_records():
        for time, (slot, command) in trace.records_of(process, "kv.commit"):
            known = commits.get(slot)
            if known is None or time < known[0]:
                commits[slot] = (time, command)
    return commits


def _version_history(
    commits: dict[int, tuple[float, str]]
) -> dict[str, list[tuple[float, int]]]:
    """Per-key ``(commit_time, version)`` steps, replayed in slot order."""
    replay = ReplicatedKV()
    history: dict[str, list[tuple[float, int]]] = {}
    for slot in sorted(commits):
        time, command = commits[slot]
        request_id, op, key, args = decode_command(command)
        if replay.apply_decoded(request_id, op, key, args) is None:
            continue
        _, version = replay.read(key)
        history.setdefault(key, []).append((time, version))
    return history


def _staleness(trace: RunTrace, commits: dict[int, tuple[float, str]]) -> dict[str, Any]:
    """Compare local-mode reads against the authoritative version timeline.

    The timeline is replayed only if the run made a local read: a log-mode
    run reports the four keys as zeros without decoding its commit log.
    """
    reads = [
        entry
        for process in trace.processes_with_records()
        for entry in trace.records_of(process, "kv.local_read")
    ]
    versions = _version_history(commits) if reads else {}
    local_reads = len(reads)
    stale_reads = 0
    max_lag = 0
    for read_at, (_request_id, key, seen_version) in reads:
        authoritative = 0
        for time, version in versions.get(key, ()):
            if time <= read_at:
                authoritative = version
            else:
                break
        if seen_version < authoritative:
            stale_reads += 1
            max_lag = max(max_lag, authoritative - seen_version)
    return {
        "local_reads": local_reads,
        "stale_reads": stale_reads,
        "stale_read_rate": stale_reads / local_reads if local_reads else 0.0,
        "staleness_max_lag": max_lag,
    }


def kv_metrics(trace: RunTrace) -> dict[str, Any]:
    """The full client-visible metrics dict for one KV run."""
    history = history_from_trace(trace)
    completed = [operation for operation in history if operation.completed]
    latencies = [operation.response - operation.invoke for operation in completed]
    end_time = trace.end_time
    commits = _commit_timeline(trace)
    verdict = check_history(history)
    metrics: dict[str, Any] = {
        "ops_issued": len(history),
        "ops_completed": len(completed),
        "completion_rate": len(completed) / len(history) if history else 1.0,
        "throughput": len(completed) / end_time if end_time > 0 else 0.0,
        "latency_mean": sum(latencies) / len(latencies) if latencies else 0.0,
        "latency_p50": percentile(latencies, 0.50),
        "latency_p95": percentile(latencies, 0.95),
        "latency_p99": percentile(latencies, 0.99),
        "slots_committed": len(commits),
        "linearizable": verdict.ok,
        "lin_violations": len(verdict.violations),
        "lin_undecided": len(verdict.undecided),
        "lin_ops_checked": verdict.ops_checked,
    }
    metrics.update(_staleness(trace, commits))
    return metrics
