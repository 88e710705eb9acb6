"""Sweep-scale throughput: the quick E1 sweep through each execution mode.

The tracked quantity is **runs per second** for the whole quick E1 experiment
(12 sweep configurations + 1 ablation run = 13 simulations, including spec
materialisation, dispatch, metric extraction, and aggregation) under:

* ``sweep_e1_serial`` — in-process, the reference compute floor;
* ``sweep_e1_warm_pool_jobs{2,4}`` — the persistent :class:`WorkerPool`: the
  pool is spawned and warmed once (outside the timed rounds, as in real use
  where one Engine serves a whole session) and every round reuses it.

Both modes produce bit-identical determinism digests —
``benchmarks/digest_manifest.py --jobs N`` is the gate.

Results land in ``BENCH_core.json`` (schema ``bench-core/2``) via the suite
conftest; ``runs_per_round`` turns each median into ``runs_per_second``.
Nine rounds per mode (not the microbenchmarks' one): multi-process timings
jitter badly on small/contended machines, and the regression gate compares
medians, which need enough samples to be stable inside the 25% CI budget.
"""

from repro.experiments.e1_ohp_convergence import run as run_e1
from repro.runtime import Engine

#: The quick E1 experiment executes 12 sweep configs plus 1 ablation run.
E1_QUICK_RUNS = 13


def _run_quick_e1(engine=None):
    result = run_e1(quick=True, seed=0, engine=engine)
    assert result.summary["adaptive_all_converged"]
    return result


def _tag(benchmark, key):
    benchmark.extra_info["runs_per_round"] = E1_QUICK_RUNS
    benchmark.extra_info["bench_core_key"] = key


def test_sweep_e1_serial(benchmark):
    """The compute floor: the whole quick E1 sweep in-process."""
    benchmark.pedantic(_run_quick_e1, rounds=9, iterations=1, warmup_rounds=1)
    _tag(benchmark, "sweep_e1_serial")


def _bench_warm(benchmark, jobs, key):
    with Engine(jobs=jobs) as engine:
        _run_quick_e1(engine)  # spawn + warm the pool outside the timed rounds
        benchmark.pedantic(
            lambda: _run_quick_e1(engine), rounds=9, iterations=1, warmup_rounds=1
        )
    _tag(benchmark, key)


def test_sweep_e1_warm_pool_jobs2(benchmark):
    """Persistent pool, 2 workers: startup amortised to zero per call."""
    _bench_warm(benchmark, 2, "sweep_e1_warm_pool_jobs2")


def test_sweep_e1_warm_pool_jobs4(benchmark):
    """Persistent pool, 4 workers (the acceptance-gate configuration)."""
    _bench_warm(benchmark, 4, "sweep_e1_warm_pool_jobs4")
