"""Executing one planned work item — with digests, against the shared cache.

This is the worker side of the fabric — the coordinator dispatches
``partial(execute_item, cache=…)`` over its plan items on the worker fleet —
but it is deliberately a plain function (:func:`execute_item`) so the
experiment CLI's ``--shard i/N`` mode and the tests can run items in-process
without a coordinator.

An item is executed, cached and turned into its row by the engine's own item
functions (:func:`~repro.runtime.engine.run_item` and friends).  The
determinism digests of the simulations it ran travel with it — in the
:class:`ItemResult`, the journal and the one ``{"value", "digests"}`` cache
entry per item that engine runs and fabric runs share — so a result served
from a cache either side warmed still proves itself bit-identical to a fresh
execution.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..analysis.runner import jsonl_line, shard_items
from ..errors import ReproError
from ..runtime.cache import RunCache
from ..runtime.engine import cache_item, cached_item, item_row, run_item
from ..runtime.spec import ScenarioSpec
from .plan import WorkItem

__all__ = ["ItemResult", "execute_item", "execute_shard", "resolve_function"]


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
    source: str = "fresh"  # "fresh" | "cached"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "key": self.key,
            "row": dict(self.row),
            "digests": list(self.digests),
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ItemResult":
        return cls(
            index=int(payload["index"]),
            key=str(payload["key"]),
            row=dict(payload.get("row", {})),
            digests=tuple(int(d) for d in payload.get("digests", ())),
            source=str(payload.get("source", "fresh")),
        )


def _canonical_row(row: Mapping[str, Any]) -> dict:
    """The row as it will appear in JSONL: one canonicalisation, up front.

    A round-trip through the engine's own :func:`jsonl_line` makes the row
    plain JSON for the journal *and* guarantees the coordinator's merged line
    is byte-identical to the engine's.
    """
    return json.loads(jsonl_line(row))


def execute_item(item: WorkItem, cache: RunCache | None = None) -> ItemResult:
    """Execute one work item, or rehydrate it from the shared cache."""
    if item.kind == "spec":
        fn, arg = None, ScenarioSpec.from_dict(item.payload["spec"])
    else:
        fn, arg = resolve_function(item.payload["fn"]), dict(item.payload["config"])
    hit = cached_item(cache, item.key)
    value, digests = hit or run_item(item.kind, fn, arg)
    if hit is None:
        cache_item(cache, item.key, value, digests)
    return ItemResult(
        index=item.index,
        key=item.key,
        row=_canonical_row(item_row(item.kind, arg, value)),
        digests=tuple(digests),
        source="fresh" if hit is None else "cached",
    )


def execute_shard(
    items: Sequence[WorkItem], shard: int, shards: int, cache: RunCache | None = None
) -> Iterator[ItemResult]:
    """Execute contiguous shard ``shard`` (0-based) of ``shards``, in process, lazily."""
    return (execute_item(item, cache) for item in shard_items(items, shard, shards))
