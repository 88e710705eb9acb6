"""The library's front door: declarative scenarios, one engine, many cores.

``repro.runtime`` is the single entry point every workload flows through —
simulations, parameter sweeps, and the experiments of :mod:`repro.experiments`::

    from repro.runtime import Engine, scenario, partial_sync, cascading

    spec = (
        scenario("any-failures")
        .processes(8).homonyms([3, 3, 2])
        .crashes(cascading(5, first_at=6.0, interval=4.0))
        .detectors("HOmega", "HSigma", stabilization=20.0)
        .consensus("homega_hsigma")
        .horizon(700.0).seed(7)
        .build()
    )
    record = Engine().run(spec)                  # one run
    records = Engine(jobs=4).run_many(           # a multi-core sweep
        spec.with_seed(s) for s in range(32)
    )

The pieces:

* :mod:`~repro.runtime.spec` — :class:`ScenarioSpec` and its serializable
  parts (membership shape, timing, crashes, detectors), with
  ``to_dict``/``from_dict`` round-tripping;
* :mod:`~repro.runtime.builder` — the fluent :func:`scenario` builder, and
  the paper's requirement table that every ``ScenarioSpec`` construction
  runs (``build()``, ``from_dict``, ``with_seed`` and ``replace`` alike);
* :mod:`~repro.runtime.registry` — name → component registries for
  detectors, consensus algorithms, programs, property checks, and
  experiments;
* :mod:`~repro.runtime.engine` — the :class:`Engine`, :class:`RunRecord`,
  and the module-level :func:`execute_spec` worker entry point, whose two
  halves are :func:`simulate_spec` (spec → finished ``Simulation``, for
  callers that read the trace) and :func:`measure_run` (→ ``RunRecord``) —
  the one simulator run path, KV specs included;
* :mod:`~repro.runtime.executors` — :class:`SerialExecutor` and the
  persistent warm :class:`WorkerPool`;
* :mod:`~repro.runtime.fleet` — the one supervised fleet of worker processes
  under both the pool and the fabric coordinator;
* :mod:`~repro.runtime.cache` — the digest-keyed :class:`RunCache` that
  memoizes completed runs on ``(canonical-spec-hash, seed)``.
"""

from ..analysis.runner import ParameterSweep
from ..consensus import distinct_proposals
from .builder import ScenarioBuilder, ScenarioValidationError, scenario
from .cache import RunCache
from .engine import (
    Engine,
    RunRecord,
    execute_spec,
    measure_run,
    run_with_digest_capture,
    simulate_spec,
)
from .executors import (
    Executor,
    SerialExecutor,
    WorkerPool,
    executor_for,
)
from .registry import (
    CHECKS,
    CONSENSUS,
    DETECTORS,
    EXPERIMENTS,
    LINKS,
    PROGRAMS,
    Registry,
    register_check,
    register_consensus,
    register_detector,
    register_detector_class,
    register_experiment,
    register_link,
    register_program,
    register_reduction,
)
from .spec import (
    CrashSpec,
    DetectorSpec,
    KVSpec,
    MembershipSpec,
    NetworkSpec,
    ScenarioSpec,
    TimingSpec,
    TopologySpec,
    canonical_spec_hash,
    asymmetric,
    asynchronous,
    cascading,
    composed,
    crashes_at,
    duplicating,
    fraction,
    full_mesh,
    gossip,
    jittered,
    leaders,
    lossy,
    minority,
    no_crashes,
    partial_sync,
    partitioned,
    reliable,
    ring,
    synchronous,
)

__all__ = [
    "CHECKS",
    "CONSENSUS",
    "CrashSpec",
    "DETECTORS",
    "DetectorSpec",
    "EXPERIMENTS",
    "Engine",
    "Executor",
    "KVSpec",
    "LINKS",
    "MembershipSpec",
    "NetworkSpec",
    "PROGRAMS",
    "ParameterSweep",
    "Registry",
    "RunCache",
    "RunRecord",
    "ScenarioBuilder",
    "ScenarioSpec",
    "ScenarioValidationError",
    "SerialExecutor",
    "TimingSpec",
    "TopologySpec",
    "WorkerPool",
    "asymmetric",
    "asynchronous",
    "canonical_spec_hash",
    "cascading",
    "composed",
    "crashes_at",
    "distinct_proposals",
    "duplicating",
    "execute_spec",
    "executor_for",
    "fraction",
    "full_mesh",
    "gossip",
    "jittered",
    "leaders",
    "lossy",
    "measure_run",
    "minority",
    "no_crashes",
    "partial_sync",
    "partitioned",
    "register_check",
    "register_consensus",
    "register_detector",
    "register_detector_class",
    "register_experiment",
    "register_link",
    "register_program",
    "register_reduction",
    "reliable",
    "ring",
    "run_with_digest_capture",
    "scenario",
    "simulate_spec",
    "synchronous",
]
