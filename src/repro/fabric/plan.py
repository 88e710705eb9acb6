"""The deterministic shard planner: experiments → ordered work items → chunks.

A *plan* is the full list of work items a sweep would execute, in exactly the
order a serial engine would execute them, each tagged with its global index
and its :class:`~repro.runtime.cache.RunCache` key.  Plans are produced
without running any simulation: the experiment's ``run`` function executes
against a :class:`PlanningEngine` that records what is dispatched instead of
dispatching it.

Three item kinds cover every engine entry point the experiments use:

* ``"sweep"`` — ``Engine.sweep(run_one, sweep)``: the payload names the
  module-level function (``module.qualname``) and carries its config; the
  result row is ``merge_row(config, outcome)``, exactly what the engine
  emits to JSONL;
* ``"map"`` — ``Engine.map(fn, items)``: like ``"sweep"`` but the function's
  return value *is* the row (the engine does not merge or emit for ``map``);
* ``"spec"`` — ``Engine.run`` / ``run_many`` / ``run_sweep``: the payload is
  the spec's ``to_dict()`` and the row is the executed
  :class:`~repro.runtime.engine.RunRecord`'s ``to_dict()`` (again matching
  the engine's JSONL emission), keyed on ``(canonical-spec-hash, seed)``.

Because an item is plain JSON, a chunk — a contiguous slice of the
item list, cut by the same :func:`~repro.analysis.runner.shard_bounds` math
as ``ParameterSweep.slice`` and ``--shard i/N`` — is a self-contained work
order: any process that can import the library can execute it, and
concatenating the chunks' results in chunk order reproduces serial output
exactly.

Planning is only valid for experiments whose dispatch structure does not
depend on earlier results (an experiment that inspected sweep rows to decide
its *next* sweep would record a truncated plan).  Every registered
deterministic experiment (E1–E12) dispatches its full grid unconditionally;
the planner records every engine call first and only then lets the
experiment's aggregation see placeholder rows, so a late ``KeyError`` in a
summary cannot truncate the plan — it is caught and ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from ..analysis.runner import ParameterSweep, merge_row, shard_bounds
from ..errors import ReproError
from ..runtime.cache import RunCache
from ..runtime.engine import RunRecord
from ..runtime.registry import EXPERIMENTS
from ..runtime.spec import ScenarioSpec

__all__ = [
    "PlanningError",
    "WorkItem",
    "FabricPlan",
    "PlanningEngine",
    "plan_experiments",
    "plan_sweep",
]

PLAN_SCHEMA = "fabric-plan/1"


class PlanningError(ReproError):
    """An experiment's work could not be enumerated as a shardable plan."""


def _function_name(fn: Callable[..., Any]) -> str:
    """``module.qualname`` of a plannable function, or raise.

    Mirrors the cache's cacheability rule: lambdas and nested functions have
    ambiguous qualified names, cannot be re-imported by a worker, and are
    rejected at planning time (the pool executors would reject them at
    pickling time anyway).
    """
    module = getattr(fn, "__module__", "") or ""
    qualname = getattr(fn, "__qualname__", "") or ""
    if not module or not qualname or "<lambda>" in qualname or "<locals>" in qualname:
        raise PlanningError(
            f"cannot plan over {fn!r}: only module-level functions can be "
            "named in a plan and re-imported by a worker"
        )
    return f"{module}.{qualname}"


@dataclass(frozen=True)
class WorkItem:
    """One executable unit of a plan (see the module docstring for kinds)."""

    index: int
    kind: str  # "sweep" | "map" | "spec"
    payload: Mapping[str, Any]
    key: str
    experiment: str = ""
    call: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("sweep", "map", "spec"):
            raise PlanningError(f"unknown work item kind {self.kind!r}")
        object.__setattr__(self, "payload", dict(self.payload))

    @property
    def label(self) -> str:
        """A short human identification for logs and error messages."""
        if self.kind == "spec":
            spec = self.payload.get("spec", {})
            return f"{spec.get('name') or self.experiment}[seed={spec.get('seed')}]"
        config = self.payload.get("config", {})
        return f"{self.experiment or self.payload.get('fn')}[seed={config.get('seed')}]"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "payload": dict(self.payload),
            "key": self.key,
            "experiment": self.experiment,
            "call": self.call,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkItem":
        return cls(
            index=int(payload["index"]),
            kind=str(payload["kind"]),
            payload=dict(payload["payload"]),
            key=str(payload["key"]),
            experiment=str(payload.get("experiment", "")),
            call=int(payload.get("call", 0)),
        )


class _PlaceholderRow(dict):
    """A result row whose every missing key reads as ``None``.

    Returned by the planning engine so experiment aggregation code that runs
    *after* the sweeps (``all(row["converged"] …)``, ``aggregate_rows``) can
    usually complete without real metrics; code that genuinely needs values
    (``sum``, arithmetic) raises and is caught by the planner.
    """

    def __missing__(self, key: str) -> None:
        return None


def _jsonable(value: Any, what: str) -> Any:
    """Round-trip ``value`` through JSON, or raise a planning error."""
    try:
        rounded = json.loads(json.dumps(value))
    except (TypeError, ValueError) as error:
        raise PlanningError(f"{what} is not JSON-serializable: {error}") from error
    if rounded != value:
        raise PlanningError(
            f"{what} does not survive a JSON round-trip; plan.json "
            "would silently alter it (tuples? non-string keys?)"
        )
    return rounded


class PlanningEngine:
    """An Engine stand-in that records dispatched work instead of running it.

    Implements every entry point the experiments call (``sweep``,
    ``run_sweep``, ``run_many``, ``run``, ``map``) by appending
    :class:`WorkItem`\\ s — in dispatch order — to :attr:`items` and returning
    placeholder results.  ``call`` numbers each engine invocation so a plan
    records where one sweep ends and the next begins.
    """

    def __init__(self, experiment: str = "") -> None:
        self.experiment = experiment
        self.items: list[WorkItem] = []
        self._calls = 0

    # -- recording helpers ---------------------------------------------
    def _add(self, kind: str, payload: Mapping[str, Any], key: str) -> None:
        self.items.append(
            WorkItem(
                index=len(self.items),
                kind=kind,
                payload=payload,
                key=key,
                experiment=self.experiment,
                call=self._calls,
            )
        )

    def _next_call(self) -> int:
        self._calls += 1
        return self._calls - 1

    # -- Engine interface ----------------------------------------------
    def sweep(self, run_one, sweep, *, stream: bool = False):
        fn_name = _function_name(run_one)
        self._next_call()
        rows = []
        for config in sweep:
            config = _jsonable(dict(config), f"sweep config for {fn_name}")
            self._add(
                "sweep",
                {"fn": fn_name, "config": config},
                RunCache.outcome_key_named(fn_name, config),
            )
            rows.append(_PlaceholderRow(merge_row(config, {})))
        return iter(rows) if stream else rows

    def map(self, fn, items):
        fn_name = _function_name(fn)
        self._next_call()
        rows = []
        for item in items:
            if not isinstance(item, Mapping):
                raise PlanningError(
                    f"cannot plan Engine.map over non-mapping item {item!r}"
                )
            config = _jsonable(dict(item), f"map item for {fn_name}")
            self._add(
                "map",
                {"fn": fn_name, "config": config},
                RunCache.outcome_key_named(fn_name, config),
            )
            rows.append(_PlaceholderRow())
        return rows

    def _record_spec(self, spec: ScenarioSpec) -> RunRecord:
        if spec.backend != "sim":
            raise PlanningError(
                f"cannot plan non-sim spec {spec.name!r}: real-backend runs "
                "are wall-clock measurements with no deterministic digest"
            )
        payload = _jsonable(spec.to_dict(), f"spec {spec.name!r}")
        self._add("spec", {"spec": payload}, RunCache.record_key(spec))
        return RunRecord(scenario=spec.name, seed=spec.seed, config=payload)

    def run(self, spec: ScenarioSpec) -> RunRecord:
        self._next_call()
        return self._record_spec(spec)

    def run_many(self, specs, *, stream: bool = False):
        self._next_call()
        records = [self._record_spec(spec) for spec in specs]
        return iter(records) if stream else records

    def run_sweep(self, make_spec, sweep, *, stream: bool = False):
        self._next_call()
        rows = []
        for config in sweep:
            config = dict(config)
            self._record_spec(make_spec(dict(config)))
            rows.append(_PlaceholderRow(merge_row(config, {})))
        return iter(rows) if stream else rows

    def close(self) -> None:
        """Nothing to release (present for Engine interface parity)."""


@dataclass
class FabricPlan:
    """An ordered, JSON-serializable list of work items plus its provenance."""

    items: list[WorkItem] = field(default_factory=list)
    experiments: tuple[str, ...] = ()
    quick: bool = True
    seed: int = 0

    def __len__(self) -> int:
        return len(self.items)

    def experiment_spans(self) -> dict[str, tuple[int, int]]:
        """``{experiment: [start, end)}`` over the global item order.

        Experiments are planned one after another, so each one's items are a
        contiguous index range — which is what lets sharded digests be folded
        back into per-experiment manifest digests.
        """
        spans: dict[str, tuple[int, int]] = {}
        for item in self.items:
            start, end = spans.get(item.experiment, (item.index, item.index))
            spans[item.experiment] = (min(start, item.index), max(end, item.index) + 1)
        return spans

    # -- chunking ------------------------------------------------------
    def chunk(self, chunks: int) -> list[list[WorkItem]]:
        """Partition the items into ``chunks`` contiguous, balanced slices.

        Uses the same :func:`~repro.analysis.runner.shard_bounds` math as
        ``ParameterSweep.slice`` and ``--shard i/N``; empty slices (more
        chunks than items) are dropped.
        """
        out = []
        for chunk in range(chunks):
            start, end = shard_bounds(len(self.items), chunk, chunks)
            if end > start:
                out.append(self.items[start:end])
        return out

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "experiments": list(self.experiments),
            "quick": self.quick,
            "seed": self.seed,
            "items": [item.to_dict() for item in self.items],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FabricPlan":
        if payload.get("schema") != PLAN_SCHEMA:
            raise PlanningError(f"not a fabric plan (schema {payload.get('schema')!r})")
        return cls(
            items=[WorkItem.from_dict(item) for item in payload.get("items", [])],
            experiments=tuple(payload.get("experiments", ())),
            quick=bool(payload.get("quick", True)),
            seed=int(payload.get("seed", 0)),
        )

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def read(cls, path: str | Path) -> "FabricPlan":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def plan_experiments(
    names: Iterable[str], *, quick: bool = True, seed: int = 0
) -> FabricPlan:
    """Enumerate the work of the named registered experiments, in order.

    The returned plan's item order is exactly the order a serial engine would
    execute (and a serial digest manifest would capture): experiments in the
    given order, engine calls in program order, items in sweep order.
    """
    from .. import experiments  # noqa: F401  (importing registers E1–E12)

    names = [name.upper() for name in names]
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise PlanningError(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"available: {', '.join(EXPERIMENTS.names())}"
        )
    items: list[WorkItem] = []
    for name in names:
        runner = EXPERIMENTS.resolve(name)
        recorder = PlanningEngine(experiment=name)
        try:
            runner(quick=quick, seed=seed, engine=recorder)
        except PlanningError:
            raise
        except Exception:
            # Placeholder rows carry no metrics, so aggregation/summary code
            # may legitimately raise *after* every engine call was recorded;
            # dispatch itself never depends on results (module docstring).
            pass
        if not recorder.items:
            raise PlanningError(f"experiment {name} dispatched no work to plan")
        for item in recorder.items:
            items.append(
                WorkItem(
                    index=len(items),
                    kind=item.kind,
                    payload=item.payload,
                    key=item.key,
                    experiment=item.experiment,
                    call=item.call,
                )
            )
    return FabricPlan(items=items, experiments=tuple(names), quick=quick, seed=seed)


def plan_sweep(
    run_one: Callable[[dict], Mapping[str, Any]] | str,
    sweep: ParameterSweep | Iterable[Mapping[str, Any]],
    *,
    name: str = "sweep",
) -> FabricPlan:
    """Plan a raw sweep of a module-level function (no experiment involved).

    ``run_one`` may be the function itself or its ``module.qualname`` string
    (what a plan stores).
    """
    fn_name = run_one if isinstance(run_one, str) else _function_name(run_one)
    items: list[WorkItem] = []
    for config in sweep:
        config = _jsonable(dict(config), f"sweep config for {fn_name}")
        items.append(
            WorkItem(
                index=len(items),
                kind="sweep",
                payload={"fn": fn_name, "config": config},
                key=RunCache.outcome_key_named(fn_name, config),
                experiment=name,
            )
        )
    if not items:
        raise PlanningError("the sweep yielded no configurations")
    return FabricPlan(items=items, experiments=(name,))
