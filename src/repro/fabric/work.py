"""Executing one planned work item — with digests, against the shared cache.

This is the worker side of the fabric — the coordinator dispatches
``partial(execute_item, cache=…)`` over its plan items on the worker fleet —
but it is deliberately a plain function (:func:`execute_item`) so the
experiment CLI's ``--shard i/N`` mode and the tests can run items in-process
without a coordinator.

Every fresh execution captures the determinism digests of the simulations it
ran (via :func:`repro.sim.scheduler.capture_digests`, the same mechanism the
digest manifest uses inside pool workers), so results carry the proof of
bit-identical behaviour with them.  Caching is two-level against one shared
:class:`~repro.runtime.cache.RunCache` directory:

* the **plain entry** under the item's own key is exactly what an ordinary
  ``Engine(cache=…)`` run would store (a ``RunRecord`` dict for spec items,
  the outcome mapping for sweep items) — fabric runs and engine runs
  populate each other's hits;
* the **fabric entry** (``derived_key("fab", key)``) additionally stores the
  finished row *and* the digest list, so a resumed or repeated fabric run
  reproduces not just the output but the digest manifest.

A plain-entry hit for a sweep item has no digest record (the engine never
captures digests for custom functions); such a result is marked
``digests_complete=False`` and the digest-verification path refuses to trust
a fold containing one.  Spec records carry their digest, so their plain hits
stay complete.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..analysis.runner import jsonl_line, merge_row
from ..errors import ReproError
from ..runtime.cache import RunCache
from ..runtime.engine import execute_spec
from ..runtime.spec import ScenarioSpec
from ..sim.scheduler import capture_digests
from .plan import WorkItem

__all__ = ["ItemResult", "execute_item", "resolve_function"]


class WorkError(ReproError):
    """A work item could not be executed (unresolvable function, bad spec)."""


def resolve_function(name: str) -> Callable[..., Any]:
    """Import ``module.qualname`` back into the function object."""
    module_name, _, qualname = name.rpartition(".")
    while module_name:
        try:
            target: Any = importlib.import_module(module_name)
            break
        except ImportError:
            # The split is ambiguous ("pkg.mod.fn" vs "pkg.mod.Class.method"):
            # walk left until a prefix imports, then getattr the rest.
            module_name, _, rest = module_name.rpartition(".")
            qualname = f"{rest}.{qualname}"
    else:
        raise WorkError(f"cannot resolve function {name!r}: no importable module prefix")
    for part in qualname.split("."):
        try:
            target = getattr(target, part)
        except AttributeError as error:
            raise WorkError(f"cannot resolve function {name!r}: {error}") from error
    if not callable(target):
        raise WorkError(f"{name!r} resolved to non-callable {target!r}")
    return target


@dataclass(frozen=True)
class ItemResult:
    """The outcome of one work item: its row, its digests, its provenance."""

    index: int
    key: str
    row: Mapping[str, Any] = field(default_factory=dict)
    digests: tuple[int, ...] = ()
    source: str = "fresh"  # "fresh" | "fabric-cache" | "run-cache"
    digests_complete: bool = True

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "key": self.key,
            "row": dict(self.row),
            "digests": list(self.digests),
            "source": self.source,
            "digests_complete": self.digests_complete,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ItemResult":
        return cls(
            index=int(payload["index"]),
            key=str(payload["key"]),
            row=dict(payload.get("row", {})),
            digests=tuple(int(d) for d in payload.get("digests", ())),
            source=str(payload.get("source", "fresh")),
            digests_complete=bool(payload.get("digests_complete", True)),
        )


def _canonical_row(row: Mapping[str, Any]) -> dict:
    """The row as it will appear in JSONL: one canonicalisation, up front.

    A round-trip through the engine's own :func:`jsonl_line` makes the row
    plain JSON for the journal *and* guarantees the coordinator's merged line
    is byte-identical to the engine's.
    """
    return json.loads(jsonl_line(row))


def _fresh(item: WorkItem) -> tuple[dict, list[int], Mapping[str, Any] | None]:
    """Execute the item, returning (row, digests, plain-cache payload)."""
    with capture_digests() as sink:
        if item.kind == "spec":
            record = execute_spec(ScenarioSpec.from_dict(item.payload["spec"]))
            return _canonical_row(record.to_dict()), sink, record.to_dict()
        fn = resolve_function(item.payload["fn"])
        config = dict(item.payload["config"])
        outcome = dict(fn(dict(config)))
        if item.kind == "sweep":
            return _canonical_row(merge_row(config, outcome)), sink, outcome
        return _canonical_row(outcome), sink, None  # "map": the row IS the outcome


def execute_item(item: WorkItem, cache: RunCache | None = None) -> ItemResult:
    """Execute (or rehydrate) one work item; see the module docstring."""
    fab_key = RunCache.derived_key("fab", item.key)
    if cache is not None:
        entry = cache.get(fab_key)
        if isinstance(entry, dict) and "row" in entry:
            return ItemResult(
                index=item.index,
                key=item.key,
                row=entry["row"],
                digests=tuple(int(d) for d in entry.get("digests", ())),
                source="fabric-cache",
            )
        plain = cache.get(item.key)
        if plain is not None:
            if item.kind == "spec":
                digest = str(plain.get("digest", ""))
                return ItemResult(
                    index=item.index,
                    key=item.key,
                    row=_canonical_row(plain),
                    digests=(int(digest, 16),) if digest else (),
                    source="run-cache",
                    digests_complete=bool(digest),
                )
            if item.kind == "sweep":
                row = _canonical_row(merge_row(dict(item.payload["config"]), plain))
                return ItemResult(
                    index=item.index,
                    key=item.key,
                    row=row,
                    source="run-cache",
                    digests_complete=False,
                )
            # "map" items have no plain-entry convention (Engine.map never
            # caches); fall through to fresh execution.
    row, digests, plain_payload = _fresh(item)
    if cache is not None:
        if plain_payload is not None:
            cache.put(item.key, plain_payload)
        cache.put(fab_key, {"row": row, "digests": list(digests)})
    return ItemResult(index=item.index, key=item.key, row=row, digests=tuple(digests))
