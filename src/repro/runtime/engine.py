"""The execution engine: one spec, many specs, or whole parameter sweeps.

The :class:`Engine` is the single place where scenarios become runs.  It
dispatches work through a pluggable executor
(:class:`~repro.runtime.executors.SerialExecutor` by default; with
``jobs=N`` a persistent :class:`~repro.runtime.executors.WorkerPool` whose
worker processes are spawned once and reused across every call) and returns
structured :class:`RunRecord` objects, which it can also append to a JSONL
log.

Three entry points cover every workload in the repository:

* :meth:`Engine.run` — execute one :class:`~repro.runtime.spec.ScenarioSpec`;
* :meth:`Engine.run_many` / :meth:`Engine.run_sweep` — execute an iterable of
  specs, or a :class:`~repro.analysis.runner.ParameterSweep` of configs turned
  into specs by a ``make_spec`` function;
* :meth:`Engine.sweep` — dispatch a custom ``run_one(config) -> dict``
  function over a :class:`ParameterSweep` (what the experiment modules use
  when their metric extraction goes beyond the generic record).

Every entry point is *lowered* once, by :meth:`Engine._lower`, to work items
``(kind, fn, arg)`` of one of two kinds: ``"spec"`` (``arg`` is a scenario
spec) or ``"sweep"`` (``fn(config)``; the row is the config merged with the
outcome).  :meth:`Engine.map` is not an item path: it hands a function to the
executor as it is, with no cache, plan or emission.  What an item means is
decided here, once, for the engine's workers, the fabric's workers
(:mod:`repro.fabric.work`) and the fabric's planner (:mod:`repro.fabric.plan`,
an Engine subclass that overrides only ``_lower``): :func:`item_key` (its
cache key), :func:`run_item` (execute it: value *and* determinism digests)
and :func:`item_row` (the row it emits).

Sweep-scale machinery, all opt-in:

* **streaming** — every entry point emits each row as its dispatch chunk
  completes, *in input order*: JSONL lines are flushed one by one and the
  ``progress=`` hook sees each payload, so a consumer can fold, plot, or
  persist incrementally while later chunks still run, and the final table is
  deterministic regardless.  The call itself returns the full list;
* **run caching** — pass ``cache=`` a directory (or
  :class:`~repro.runtime.cache.RunCache`) and completed items are memoized,
  one ``{"value", "digests"}`` entry each, on ``(canonical-spec-hash, seed)``
  for specs and on function name + config for ``sweep`` functions;
  repeated or resumed sweeps skip the recompute.  The fabric reads and writes
  the same entries, so either side serves the other's hits — digests
  included;
* **lifecycle** — the Engine owns its executor: ``Engine(jobs=4)`` keeps one
  warm worker pool alive across calls until :meth:`Engine.close` (or the end
  of a ``with Engine(...) as engine:`` block).

Everything a worker process receives is plain data or a module-level
function, so the same call works serially and in parallel and produces
identical rows for identical seeds.  Transport is *packed*: workers receive
chunks of args and return ``(value, digests)`` pairs; the parent — which
already holds every spec and config — builds the rows in input order, so the
per-run config dict never crosses a process boundary twice.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..analysis.metrics import consensus_metrics
from ..analysis.runner import ParameterSweep, jsonl_line, merge_row
from ..consensus import distinct_proposals
from ..errors import ConfigurationError
from ..membership import Membership
from ..sim import CompositeProgram, Simulation, build_system
from ..sim import scheduler
from ..sim.failures import FailurePattern
from ..sim.scheduler import capture_digests
from .cache import RunCache
from .executors import Executor, executor_for
from .registry import CHECKS, CONSENSUS, PROGRAMS
from .spec import ScenarioSpec

__all__ = [
    "RunRecord",
    "Engine",
    "execute_spec",
    "simulate_spec",
    "measure_run",
    "fold_checks",
    "item_key",
    "run_item",
    "item_row",
    "cached_item",
    "cache_item",
    "run_with_digest_capture",
]


@dataclass(frozen=True)
class RunRecord:
    """The structured outcome of one run.

    ``config`` echoes the input (a spec's ``to_dict`` or a sweep config) and
    ``metrics`` holds the measured outcome; both are plain JSON-serializable
    data, so records from serial and parallel runs compare equal and a JSONL
    log line is just ``to_dict()``.

    ``digest`` is the run's determinism digest (see
    :attr:`repro.sim.Simulation.digest`): a 64-bit hex fingerprint of the
    exact event dispatch order.  Equal digests mean behaviourally identical
    runs, so serial and parallel sweeps — and pre/post-refactor builds — can
    be compared mechanically.  It is kept out of ``metrics`` so experiment
    tables and aggregations are unaffected.
    """

    scenario: str
    seed: int
    config: Mapping[str, Any] = field(default_factory=dict)
    metrics: Mapping[str, Any] = field(default_factory=dict)
    digest: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", dict(self.config))
        object.__setattr__(self, "metrics", dict(self.metrics))

    def row(self) -> dict:
        """Flatten into one result row (metrics win on key collisions)."""
        return {**{k: v for k, v in self.config.items() if not isinstance(v, (dict, list))},
                **self.metrics}

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "config": dict(self.config),
            "metrics": dict(self.metrics),
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        return cls(
            scenario=payload.get("scenario", ""),
            seed=payload.get("seed", 0),
            config=dict(payload.get("config", {})),
            metrics=dict(payload.get("metrics", {})),
            digest=payload.get("digest", ""),
        )


def fold_checks(trace: Any, pattern: FailurePattern, checks: Iterable[str]) -> dict:
    """Apply every named check to a finished run, as ``<check>_*`` metrics:
    ``_ok``, ``_time``, ``_violations`` (how many) and whatever it publishes."""
    metrics: dict[str, Any] = {}
    for check in checks:
        result = CHECKS.resolve(check)(trace, pattern)
        metrics[f"{check}_ok"] = result.ok
        metrics[f"{check}_time"] = result.stabilization_time
        metrics[f"{check}_violations"] = len(result.violations)
        # Checks may publish extra measurements (detection latency, message
        # counts, false suspicions, …) under details["metrics"]; fold them in
        # namespaced by the check, mirroring the _ok/_time keys.  (The KV
        # verdict duck-types the result protocol without a details field.)
        extra = (getattr(result, "details", None) or {}).get("metrics")
        if isinstance(extra, Mapping):
            for key, value in extra.items():
                metrics[f"{check}_{key}"] = value
    return metrics


def execute_spec(spec: ScenarioSpec) -> RunRecord:
    """Materialise and execute one declarative scenario.

    Module-level on purpose: the pool executors pickle this function by
    reference and the spec by value, so a sweep of specs fans out over worker
    processes with no extra machinery.
    """
    if spec.backend == "real":
        # The asyncio/TCP backend: the same program objects as real OS
        # processes over real sockets; imported lazily so a simulator
        # process never loads asyncio.
        from ..transport.orchestrator import execute_real_spec

        return execute_real_spec(spec)
    simulation = simulate_spec(spec)
    record = measure_run(spec, simulation)
    simulation.close()
    return record


def simulate_spec(spec: ScenarioSpec) -> Simulation:
    """Materialise one simulator scenario and run it: the finished simulation.

    The first half of :func:`execute_spec`, for callers that read the trace
    themselves (E1 reports what a record does not carry, the KV command line
    how its history certified): build the system, run to the horizon —
    or, with a consensus algorithm, until every correct process has decided;
    with a ``kv`` section, until every client is done.
    ``simulation.trace`` / ``.failure_pattern`` / ``.digest`` are the outcome.
    """
    if spec.backend != "sim":
        raise ConfigurationError(
            f"simulate_spec runs simulator scenarios only; {spec.name!r} has "
            f"backend={spec.backend!r}: run it with execute_spec"
        )
    membership = spec.membership.build()
    schedule = spec.crashes.build(membership)
    detectors = {detector.name: detector.build for detector in spec.detectors}
    if spec.kv is not None:
        # Imported lazily: the KV workload is loaded only by the runs that use it.
        from ..workloads.kv.runner import kv_system

        membership, factory, detectors, stop_when = kv_system(
            spec, membership, schedule, detectors
        )
    else:
        factory = _program_factory(spec, membership)
        stop_when = Simulation.all_correct_decided if spec.consensus else None
    system = build_system(
        membership=membership,
        timing=spec.timing.build(),
        program_factory=factory,
        crash_schedule=schedule,
        detectors=detectors,
        links=None if spec.network.is_reliable else spec.network.build(),
        seed=spec.seed,
        name=spec.name,
    )
    simulation = Simulation(system)
    simulation.run(until=spec.horizon, stop_when=stop_when)
    return simulation


def _program_factory(spec: ScenarioSpec, membership: Membership) -> Callable:
    """The ``(pid, identity) -> program`` factory of a program / consensus spec."""
    proposals = distinct_proposals(membership) if spec.consensus else None

    consensus_factory = (
        CONSENSUS.resolve(spec.consensus).factory(membership, **spec.consensus_params)
        if spec.consensus
        else None
    )
    program_entry = PROGRAMS.resolve(spec.program) if spec.program else None

    # Topology-aware programs get the materialised topology, their own index
    # and the peer indices injected into the build parameters.  ``peers`` is
    # one sorted, duplicate-free tuple per run, shared by every process, and
    # programs never mutate it.  ``views`` is the run's table of alive views
    # interned by content: a monitor's declaration looks its new view up
    # there, so monitors whose views are equal hold one tuple.  The default
    # full mesh takes the historical build call — parameter-for-parameter
    # identical, so every pre-topology digest is preserved.
    topology = None if spec.topology.is_full_mesh else spec.topology.build()
    peers = None if topology is None else tuple(range(membership.size))
    views = None if topology is None else {}

    def factory(pid, identity):
        programs = []
        if program_entry is not None:
            params = spec.program_params
            if topology is not None:
                params = {
                    **params,
                    "topology": topology,
                    "index": pid.index,
                    "peers": peers,
                    "views": views,
                }
            programs.append(program_entry.build(**params))
        if consensus_factory is not None:
            programs.append(consensus_factory(proposals[pid]))
        return programs[0] if len(programs) == 1 else CompositeProgram(*programs)

    return factory


def measure_run(spec: ScenarioSpec, simulation: Simulation) -> RunRecord:
    """The record of a finished :func:`simulate_spec` run: collect metrics.

    A KV run is measured by its client history
    (:func:`~repro.workloads.kv.metrics.kv_metrics`), a consensus run by its
    decisions (:func:`~repro.analysis.metrics.consensus_metrics`); the spec's
    checks are folded in either way.
    """
    trace, pattern = simulation.trace, simulation.failure_pattern
    metrics: dict[str, Any] = {}
    if spec.kv is not None:
        from ..workloads.kv.metrics import kv_metrics

        metrics = kv_metrics(trace)
    elif spec.consensus:
        metrics = consensus_metrics(trace, pattern)
    metrics.update(fold_checks(trace, pattern, spec.checks))
    return RunRecord(
        scenario=spec.name,
        seed=spec.seed,
        config=spec.to_dict(),
        metrics=metrics,
        digest=simulation.digest,
    )


def item_key(kind: str, fn: "Callable[..., Any] | str | None", arg: Any) -> str | None:
    """The cache (and plan) key of one work item, or ``None``: never cache it.

    Spec items key on ``(canonical-spec-hash, seed)`` — sim backend only:
    real-backend runs are wall-clock measurements, two runs of the same spec
    are *supposed* to differ, and memoizing one would silently turn a latency
    distribution into one frozen sample.  Sweep items key on
    :meth:`RunCache.function_name` plus the canonical config; lambdas and
    nested functions have ambiguous names, so they run but are never cached.
    """
    if kind == "spec":
        return RunCache.record_key(arg) if arg.backend == "sim" else None
    name = RunCache.function_name(fn)
    return None if name is None else RunCache.outcome_key_named(name, arg)


def run_item(kind: str, fn: "Callable[[Any], Any] | None", arg: Any) -> tuple[Any, list[int]]:
    """Execute one work item: ``(value, digests)``.

    ``value`` is what the cache stores and a pool worker sends back: the
    outcome of a ``sweep`` function, or just ``{"metrics",
    "digest"}`` for a spec (the parent already holds the spec; echoing its
    config back over the pipe would be pure pickle overhead).  ``digests``
    are those of the simulations the item completed, in order: the slice it
    added to the active :func:`~repro.sim.scheduler.capture_digests` sink.
    One is opened only when none is active, so an enclosing capture (a digest
    manifest, an outer item whose function calls ``Engine().run``) still sees
    every digest exactly once.
    """
    sink = scheduler.DIGEST_SINK
    with nullcontext(sink) if sink is not None else capture_digests() as sink:
        start = len(sink)
        if kind == "spec":
            record = execute_spec(arg)
            value: Any = {"metrics": dict(record.metrics), "digest": record.digest}
        else:
            # A copy goes to fn so a mutating run_one cannot corrupt the row
            # (which would also make serial and parallel runs diverge).
            value = dict(fn(dict(arg)))
        return value, sink[start:]


def item_row(kind: str, arg: Any, value: Any) -> dict:
    """The row one executed item emits to JSONL, from its arg and its value."""
    if kind == "spec":
        return RunRecord(
            scenario=arg.name, seed=arg.seed, config=arg.to_dict(), **value
        ).to_dict()
    return merge_row(arg, value)


def cached_item(cache: RunCache | None, key: str | None) -> tuple[Any, list[int]] | None:
    """The ``(value, digests)`` stored for an item, or ``None``: run it."""
    entry = cache.get(key) if cache is not None and key is not None else None
    if not isinstance(entry, dict) or not entry.keys() >= {"value", "digests"}:
        return None
    return entry["value"], entry["digests"]


def cache_item(cache: RunCache | None, key: str | None, value: Any, digests: list[int]) -> None:
    """Store an executed item; the entry either side (engine, fabric) reads."""
    if cache is not None and key is not None:
        cache.put(key, {"value": value, "digests": list(digests)})


def run_with_digest_capture(task: "tuple[Callable[[Any], Any], Any]") -> tuple[Any, list[int]]:
    """Apply ``fn`` to ``item``, also returning the digests of every
    :class:`~repro.sim.Simulation` the call completed.

    ``task`` is a ``(fn, item)`` pair so the whole thing is picklable and can
    be dispatched through any executor; the digests come back *with the
    result*, in execution order, which is what lets a digest manifest compare
    serial and pooled sweeps bit for bit (a parent-side capture never reaches
    a worker, which forks from a clean fork server, not from the parent).
    """
    fn, item = task
    with capture_digests() as sink:
        result = fn(item)
    return result, sink


class Engine:
    """Executes scenarios and sweeps through a pluggable executor.

    ``Engine(jobs=N)`` owns a persistent warm
    :class:`~repro.runtime.executors.WorkerPool` and is reusable across any
    number of ``run``/``run_many``/``run_sweep`` calls; close it explicitly
    or use it as a context manager.  ``cache`` (a directory path or
    :class:`~repro.runtime.cache.RunCache`) memoizes completed runs; see the
    module docstring.  ``progress`` is called with every emitted payload
    (record dict or row) as it completes, in order — the hook behind the
    CLI's ``--stream``.
    """

    def __init__(
        self,
        executor: Executor | None = None,
        *,
        jobs: int | None = None,
        jsonl_path: str | None = None,
        cache: RunCache | str | None = None,
        progress: Callable[[Mapping[str, Any]], None] | None = None,
    ) -> None:
        if executor is not None and jobs is not None:
            raise ValueError("pass either an executor or jobs, not both")
        self.executor: Executor = executor or executor_for(jobs)
        self.jsonl_path = jsonl_path
        self.cache = RunCache.coerce(cache)
        self.progress = progress

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release the executor's resources (idempotent).

        For a :class:`WorkerPool` this shuts the worker processes down; the
        serial executor holds nothing between calls.
        """
        self.executor.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- declarative specs ---------------------------------------------
    def run(self, spec: ScenarioSpec) -> RunRecord:
        """Execute one scenario (or rehydrate it from the cache)."""
        (row,) = self._lower("spec", None, [spec])
        return RunRecord.from_dict(row)

    def run_many(self, specs: Iterable[ScenarioSpec]) -> list[RunRecord]:
        """Execute many scenarios (in parallel when the executor allows).

        The records come back in input order once every run has finished;
        each is emitted (JSONL, ``progress``) as its dispatch chunk completes.
        """
        return [RunRecord.from_dict(row) for row in self._lower("spec", None, list(specs))]

    def run_sweep(
        self,
        make_spec: Callable[[dict], ScenarioSpec],
        sweep: ParameterSweep | Iterable[Mapping[str, Any]],
    ) -> list[dict]:
        """Turn every sweep config into a spec, execute all, return rows.

        Each returned row is the sweep config (minus the bookkeeping
        ``repetition`` field) merged with the record's metrics — the shape
        :func:`repro.analysis.runner.aggregate_rows` consumes.
        """
        configs = [dict(config) for config in sweep]
        specs = [make_spec(dict(config)) for config in configs]
        return [
            merge_row(config, record["metrics"])
            for config, record in zip(configs, self._lower("spec", None, specs))
        ]

    # -- custom per-config functions -----------------------------------
    def sweep(
        self,
        run_one: Callable[[dict], Mapping[str, Any]],
        sweep: ParameterSweep | Iterable[Mapping[str, Any]],
    ) -> list[dict]:
        """Dispatch ``run_one`` over every config of a sweep.

        ``run_one`` must be a module-level function (picklable) returning a
        metrics mapping, and a pure function of its config; rows come back in
        sweep order regardless of the executor, so parallel runs reproduce
        serial ones exactly.  When a cache is attached, outcomes are memoized on
        the function's qualified name plus the canonical config (which
        carries the seed); lambdas and nested functions are run but never
        cached — their qualnames are ambiguous, so two different ones could
        serve each other's entries.
        """
        return list(self._lower("sweep", run_one, [dict(config) for config in sweep]))

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """Apply ``fn`` to every item on the executor, in order: no cache,
        plan or emission (what warms a pool)."""
        return self.executor.map(fn, list(items))

    # -- the one item path ---------------------------------------------
    def _lower(self, kind: str, fn: Callable[[Any], Any] | None, args: list) -> Iterator[Any]:
        """Yield each item's row (:func:`item_row`), in input order, as results arrive.

        Cache hits are resolved up front and only the misses are dispatched
        (and stored, parent-side, under the item's own key).  The executors'
        ``imap`` yields in input order, so walking the items in order and
        pulling the next fresh result at each miss emits — JSONL, ``progress``
        — and yields every row the moment it is contiguous with everything
        already yielded: streaming with a deterministic output order.
        """
        keys = [item_key(kind, fn, arg) if self.cache is not None else None for arg in args]
        hits = [cached_item(self.cache, key) for key in keys]
        fresh = self.executor.imap(
            partial(run_item, kind, fn), [arg for arg, hit in zip(args, hits) if hit is None]
        )
        misses = hits.count(None)
        for arg, key, hit in zip(args, keys, hits):
            if hit is None:
                hit = next(fresh)
                misses -= 1
                if not misses:
                    # Finish the executor's call before handing over the last
                    # row: a pool reads an abandoned iterator as a cancelled
                    # call and kills workers whose "chunk done" is still due.
                    next(fresh, None)
                cache_item(self.cache, key, *hit)
            row = item_row(kind, arg, hit[0])
            self._emit(row)
            yield row

    # -- bookkeeping ---------------------------------------------------
    def _emit(self, payload: Mapping[str, Any]) -> None:
        if self.jsonl_path:
            with open(self.jsonl_path, "a", encoding="utf-8") as handle:
                handle.write(jsonl_line(payload))
        if self.progress is not None:
            self.progress(payload)

    def __repr__(self) -> str:
        return f"Engine(executor={self.executor!r})"
