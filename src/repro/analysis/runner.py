"""Parameter sweeps and result aggregation for the experiment harness."""

from __future__ import annotations

import itertools
import json
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from .tables import render_table

__all__ = [
    "ParameterSweep",
    "ExperimentResult",
    "aggregate_rows",
    "merge_row",
    "jsonl_line",
    "shard_bounds",
    "shard_items",
]


def shard_bounds(total: int, shard: int, shards: int) -> tuple[int, int]:
    """The ``[start, end)`` slice of shard ``shard`` out of ``shards``.

    The partition is contiguous and balanced: every shard gets
    ``total // shards`` items and the first ``total % shards`` shards get one
    extra.  Contiguity is what makes the partition *order-stable*: the
    concatenation of shards ``0 .. shards-1`` is exactly the original
    sequence, so merging sharded output back into input order is plain
    concatenation — no per-item bookkeeping.  This is the single audited
    code path under :meth:`ParameterSweep.slice`, the fabric chunk planner,
    and the experiment CLI's ``--shard i/N``.
    """
    if shards <= 0:
        raise ValueError(f"shards must be positive, got {shards}")
    if not 0 <= shard < shards:
        raise ValueError(f"shard must be in [0, {shards}), got {shard}")
    base, extra = divmod(total, shards)
    start = shard * base + min(shard, extra)
    return start, start + base + (1 if shard < extra else 0)


def shard_items(items: Sequence[Any], shard: int, shards: int) -> list:
    """The items of shard ``shard`` out of ``shards`` (see :func:`shard_bounds`)."""
    start, end = shard_bounds(len(items), shard, shards)
    return list(items[start:end])


def merge_row(config: Mapping[str, Any], outcome: Mapping[str, Any]) -> dict:
    """One result row: the config (minus bookkeeping) merged with the outcome."""
    row = {key: value for key, value in config.items() if key != "repetition"}
    row.update(outcome)
    return row


def jsonl_line(row: Mapping[str, Any]) -> str:
    """The one JSONL encoding of a result row (newline included).

    Serial, pooled, fabric and ``--shard`` output are byte-identical because
    every writer goes through this call.
    """
    return json.dumps(row, sort_keys=True, default=str) + "\n"


@dataclass(frozen=True)
class ExperimentResult:
    """The outcome of one experiment: raw rows, a rendered table, a summary."""

    experiment: str
    description: str
    rows: tuple[dict, ...]
    summary: dict = field(default_factory=dict)
    columns: tuple[str, ...] | None = None

    def table(self) -> str:
        """Render the result rows as an ASCII table."""
        return render_table(
            self.rows,
            columns=list(self.columns) if self.columns else None,
            title=f"{self.experiment}: {self.description}",
        )


class ParameterSweep:
    """Cartesian sweep over named parameter lists, with repetitions.

    >>> sweep = ParameterSweep({"n": [3, 5]}, repetitions=2)
    >>> configs = list(sweep)   # four configs, each with a distinct seed
    """

    def __init__(
        self,
        parameters: Mapping[str, Sequence[Any]],
        *,
        repetitions: int = 1,
        base_seed: int = 0,
    ) -> None:
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        self._parameters = {name: list(values) for name, values in parameters.items()}
        self._repetitions = repetitions
        self._base_seed = base_seed

    def __iter__(self):
        names = list(self._parameters)
        combinations = itertools.product(*(self._parameters[name] for name in names))
        for combo_index, combination in enumerate(combinations):
            for repetition in range(self._repetitions):
                config = dict(zip(names, combination))
                config["seed"] = self._base_seed + combo_index * self._repetitions + repetition
                config["repetition"] = repetition
                yield config

    def slice(self, shard: int, shards: int) -> list[dict]:
        """The configurations of shard ``shard`` out of ``shards``.

        The shards are disjoint, their union (in shard order) is exactly
        ``list(self)``, and each preserves the sweep's iteration order — the
        guarantees the fabric planner and ``--shard i/N`` both rely on; see
        :func:`shard_bounds` for the partition rule.
        """
        return shard_items(list(self), shard, shards)

    @property
    def total_runs(self) -> int:
        """The number of configurations the sweep yields (combos × reps)."""
        combos = 1
        for values in self._parameters.values():
            combos *= len(values)
        return combos * self._repetitions

    def __len__(self) -> int:
        return self.total_runs


def _cell_order(value: Any) -> tuple:
    """A total order on group values: ``None``, bools, numbers by value, the rest by ``repr``."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, repr(value))


def aggregate_rows(
    rows: Iterable[Mapping[str, Any]],
    *,
    group_by: Sequence[str],
    metrics: Sequence[str],
    aggregator: Callable[[Sequence[float]], float] = statistics.fmean,
) -> list[dict]:
    """Group rows by the given keys and aggregate numeric metrics.

    Non-numeric or missing metric values are skipped; a group whose metric has
    no usable values reports ``None`` for it.  Boolean metrics are averaged as
    rates (True → 1.0), which is how the experiments report success fractions.
    Cells come back sorted by their group values, numbers numerically.
    """
    grouped: dict[tuple, list[Mapping[str, Any]]] = {}
    for row in rows:
        key = tuple(row.get(column) for column in group_by)
        grouped.setdefault(key, []).append(row)

    aggregated: list[dict] = []
    for key, members in grouped.items():
        entry: dict[str, Any] = dict(zip(group_by, key))
        entry["runs"] = len(members)
        for metric in metrics:
            values = [
                float(member[metric])
                for member in members
                if isinstance(member.get(metric), (int, float, bool))
            ]
            entry[metric] = aggregator(values) if values else None
        aggregated.append(entry)
    aggregated.sort(key=lambda entry: tuple(_cell_order(entry[column]) for column in group_by))
    return aggregated
