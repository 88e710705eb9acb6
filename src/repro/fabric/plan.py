"""The deterministic shard planner: experiments → ordered work items → chunks.

A *plan* is the full list of work items a sweep would execute, in exactly the
order a serial engine would execute them, each tagged with its global index
and its :class:`~repro.runtime.cache.RunCache` key.  Plans are produced
without running any simulation: a plan is the experiment's declared ``work``
(:class:`~repro.experiments.base.Experiment`), dispatched by the experiment's
own loop to a :class:`PlanningEngine` — an
:class:`~repro.runtime.engine.Engine` whose one lowering hook records the
items instead of executing them.  ``report`` is never run on a plan, and an
error raised by ``work`` propagates.

The two item kinds, keys and rows are the engine's own (:func:`item_key`,
:func:`item_row` in :mod:`repro.runtime.engine`), made JSON: a ``"sweep"``
payload names the module-level function (``module.qualname``) and carries its
config, a ``"spec"`` payload is the spec's ``to_dict()``.

Because an item is plain JSON, a chunk — a contiguous slice of the
item list, cut by the same :func:`~repro.analysis.runner.shard_bounds` math
as :func:`~repro.analysis.runner.shard_items` and ``--shard i/N`` — is a
self-contained work order: any process that can import the library can
execute it, and concatenating the chunks' results in chunk order reproduces
serial output exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..analysis.runner import ParameterSweep, shard_bounds
from ..errors import ConfigurationError, ReproError
from ..runtime.cache import RunCache
from ..runtime.engine import Engine, item_key, item_row
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


@dataclass(frozen=True)
class WorkItem:
    """One executable unit of a plan (see the module docstring for kinds)."""

    index: int
    kind: str  # "sweep" | "spec"
    payload: Mapping[str, Any]
    key: str
    experiment: str = ""
    call: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("sweep", "spec"):
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


def _jsonable(value: Any, what: str, survives: Callable[[Any], bool] | None = None) -> Any:
    """Round-trip ``value`` through JSON, or raise a planning error.

    ``survives(rounded)`` judges the round trip; by default the JSON must
    equal ``value`` itself.
    """
    try:
        rounded = json.loads(json.dumps(value))
    except (TypeError, ValueError) as error:
        raise PlanningError(f"{what} is not JSON-serializable: {error}") from error
    if not (survives(rounded) if survives else rounded == value):
        raise PlanningError(
            f"{what} does not survive a JSON round-trip; plan.json "
            "would silently alter it (tuples? non-string keys?)"
        )
    return rounded


class PlanningEngine(Engine):
    """An Engine that records the items of every call instead of running them.

    Only the lowering hook is overridden, so every entry point — today's and
    any added later — plans exactly what it would execute: each call appends
    its :class:`WorkItem`\\ s, in dispatch order, to :attr:`items` (``call``
    numbers the engine invocations, so a plan records where one sweep ends and
    the next begins) and gets back the rows of items with empty results.
    """

    def __init__(self, experiment: str = "") -> None:
        super().__init__()
        self.experiment = experiment
        self.items: list[WorkItem] = []
        self._calls = 0

    def _lower(self, kind: str, fn: Callable[[Any], Any] | str | None, args: list) -> Iterator[Any]:
        self._calls += 1
        name = RunCache.function_name(fn)
        for arg in args:
            key = item_key(kind, name, arg)
            if key is None:
                raise PlanningError(
                    f"cannot plan non-sim spec {arg.name!r}: real-backend runs "
                    "are wall-clock measurements with no deterministic digest"
                    if kind == "spec"
                    else f"cannot plan {fn!r}: only a module-level function "
                    "(one a worker can re-import by name) can be written into a plan"
                )
            if kind == "spec":
                # A spec survives when it reads back equal: ``from_dict`` restores
                # what JSON changes (``crashes_at``'s integer keys become strings).
                payload = {
                    "spec": _jsonable(
                        arg.to_dict(),
                        f"spec {arg.name!r}",
                        lambda rounded: ScenarioSpec.from_dict(rounded) == arg,
                    )
                }
            else:
                payload = {"fn": name, "config": _jsonable(dict(arg), f"sweep config for {name}")}
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
        return iter([item_row(kind, arg, {}) for arg in args])


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
        :func:`~repro.analysis.runner.shard_items` and ``--shard i/N``; empty
        slices (more chunks than items) are dropped.
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
        items = [WorkItem.from_dict(item) for item in payload.get("items", [])]
        for item in items:  # a bad spec fails here, not in a worker that retries it
            if item.kind == "spec":
                try:
                    ScenarioSpec.from_dict(item.payload["spec"])
                except ConfigurationError as error:
                    raise PlanningError(f"plan item {item.index}: {error}") from error
        return cls(
            items=items,
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
        recorder = PlanningEngine(experiment=name)
        EXPERIMENTS.resolve(name).dispatch(recorder, quick, seed)
        if not recorder.items:
            raise PlanningError(f"experiment {name} dispatched no work to plan")
        base = len(items)
        items.extend(replace(item, index=base + item.index) for item in recorder.items)
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
    recorder = PlanningEngine(experiment=name)
    recorder.sweep(run_one, sweep)
    if not recorder.items:
        raise PlanningError("the sweep yielded no configurations")
    return FabricPlan(items=recorder.items, experiments=(name,))
