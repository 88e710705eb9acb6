"""Ring monitoring is scale-free: the same detection scenario at n=100 and n=1,000.

Each row runs one deterministic E12-style detection scenario end to end
(build → simulate → check) and tracks wall time plus ns per delivered message
copy.  The pair exists for a *ratio*: ``compare_bench.py`` fails when the
n=1,000 row costs more than 2× the n=100 row per copy, i.e. when an O(n)
scan is back on the ring monitor's per-event path.  A ratio of two rows
measured in the same session survives a machine change; gossip and full-mesh
cost at scale is ``python3 -m bench run --workload membership_scale``'s job.

The rows carry ``msgs_per_proc_round`` so the baseline doubles as a recorded
data point of the scaling table (compare E12's summary).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/bench_membership_scaling.py \
        -q --benchmark-only
"""

from __future__ import annotations

from repro.runtime import Engine, asynchronous, crashes_at, scenario

_HB_INTERVAL = 1.0
_HB_TIMEOUT = 6.0
_SUCCESSORS = 3


def _ring_spec(n: int):
    return (
        scenario(f"bench-ring-n{n}")
        .processes(n)
        .unique_ids()
        .timing(asynchronous(min_latency=0.01, max_latency=0.2))
        .crashes(crashes_at({n - 1: 10.0}))
        .program("heartbeat", hb_interval=_HB_INTERVAL, hb_timeout=_HB_TIMEOUT)
        .topology("ring", successors=_SUCCESSORS)
        .check("topo_detection")
        .horizon(10.0 + _HB_TIMEOUT + 5.0 * _HB_INTERVAL + 3.0)
        .seed(0)
        .build()
    )


def _bench_ring(benchmark, n: int, rounds: int):
    spec = _ring_spec(n)
    outcomes = []

    def _round():
        outcomes.append(Engine().run(spec).metrics)

    benchmark.pedantic(_round, rounds=rounds, warmup_rounds=1, iterations=1)
    metrics = outcomes[-1]
    assert metrics["topo_detection_ok"], metrics
    copies = metrics["topo_detection_copies_sent"]
    benchmark.extra_info["bench_core_key"] = f"membership_ring_n{n}"
    benchmark.extra_info["events_per_round"] = copies
    benchmark.extra_info["mode"] = "ring"
    benchmark.extra_info["n"] = n
    benchmark.extra_info["msgs_per_proc_round"] = round(
        copies / n / (metrics["topo_detection_end_time"] / _HB_INTERVAL), 3
    )


def test_membership_ring_n100(benchmark):
    """Whole ring detection scenario at n=100 (k=3 successors).

    A round is ~85 ms and single rounds swing 60–130 ms on a shared box, so a
    median of 3 alone could trip the 25 % gate; 15 rounds (after one warm-up)
    cost about what one n=1,000 round does.
    """
    _bench_ring(benchmark, 100, rounds=15)


def test_membership_ring_n1000(benchmark):
    """The headline scale: ring detection at n=1,000, still O(n·k)."""
    _bench_ring(benchmark, 1000, rounds=3)
