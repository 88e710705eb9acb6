"""What an experiment is: declared engine calls, and a reduction of their rows.

Every ``eN_*`` module's ``run`` is an :class:`Experiment`.  ``work(quick,
seed)`` lists the engine calls in order and never sees a result, so what is
dispatched cannot depend on what an earlier call returned; ``report(rows)`` is
a pure function of every dispatched row, in dispatch order.
:meth:`Experiment.dispatch` is the only loop that calls an engine — the fabric
planner hands it a recording engine and never runs ``report``.

A row is the config merged with its run's record metrics; a column that is a
function of the config alone (E5's majority-crashed cells, E9's degraded ones)
is derived in ``report``, never stored in the row.  So every experiment but
E1 builds its runs with one module-level spec function of the config.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..analysis.runner import ExperimentResult, aggregate_rows
from ..runtime import Engine

__all__ = ["Call", "Experiment", "grouped"]

#: One engine call ``(method, fn, configs)``: ``method`` names the
#: :class:`~repro.runtime.engine.Engine` entry point that applies ``fn`` to
#: every config — ``"run_sweep"`` (``fn`` makes a spec) or ``"sweep"`` (``fn``
#: runs one and returns its outcome).  E1, E4, E5, E7 and E9 declare
#: ``"sweep"``: the benchmark replays their ``_run_one`` by name.  Those of
#: E4, E5, E7 and E9 are ``execute_spec(_spec(config)).metrics``, the rows a
#: ``"run_sweep"`` of ``_spec`` gives; E1's also reads a trace value.
Call = tuple[str, Callable[[dict], Any], Iterable[Mapping[str, Any]]]


@dataclass(frozen=True)
class Experiment:
    """One declared experiment, called as ``run(quick=True, seed=0, engine=None)``."""

    name: str
    description: str
    columns: tuple[str, ...]
    work: Callable[[bool, int], Iterable[Call]]
    report: Callable[[list], tuple[Sequence[dict], dict]]  # rows -> (table rows, summary)
    #: False for wall-clock measurements (E11's real-backend half): runnable by
    #: name, but kept out of the default selection and the digest manifest.
    deterministic: bool = True

    def dispatch(self, engine: Engine, quick: bool, seed: int) -> list:
        """Make every declared call on ``engine``; all rows, in dispatch order."""
        rows: list = []
        for method, fn, configs in self.work(quick, seed):
            rows.extend(getattr(engine, method)(fn, configs))
        return rows

    def __call__(
        self, quick: bool = True, seed: int = 0, engine: Engine | None = None
    ) -> ExperimentResult:
        table, summary = self.report(self.dispatch(engine or Engine(), quick, seed))
        return ExperimentResult(self.name, self.description, tuple(table), summary, self.columns)


def grouped(group_by: Sequence[str], metrics: Sequence[str]) -> tuple[tuple[str, ...], Callable]:
    """``(columns, table_fn)`` of a table with one row per ``group_by`` cell.

    ``table_fn(rows)`` is :func:`~repro.analysis.runner.aggregate_rows` over
    these keys; ``columns`` is the order it fills: keys, ``runs``, metric means.
    """
    table = partial(aggregate_rows, group_by=group_by, metrics=metrics)
    return (*group_by, "runs", *metrics), table
