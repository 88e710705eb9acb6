"""E11's presentation layer: per-cell statistics and the two CSV shapes.

Pure functions, free of sockets and subprocesses, so every edge case is
tier-1 testable.  Nothing here judges a run — both backends are judged by the
registered checks over a :class:`~repro.sim.trace.RunTrace`
(:mod:`repro.detectors.detection`); this module only folds the per-trial
latencies those checks report:

* :func:`aggregate_cells` — folds per-trial outcomes into per-
  ``(backend, hb_interval, hb_timeout)`` cells (median + Tukey IQR; a cell
  whose every trial missed still appears);
* :func:`heatmap_csv` / :func:`scatter_csv` — the Snippet 1 §9 CSV shapes
  (heatmap: rows = ``hb_timeout_ms``, columns = ``hb_interval_ms``, value =
  median detection latency in ms; scatter: one row per cell with the missed
  count).  Latencies are measured in scenario time units on both backends and
  converted to milliseconds with the same ``time_scale`` factor, so the two
  backends land in directly comparable columns.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from ..detectors.detection import median_iqr

__all__ = ["aggregate_cells", "heatmap_csv", "scatter_csv", "units_to_ms"]


def units_to_ms(units: float, time_scale: float) -> float:
    """Scenario time units → wall milliseconds at the run's time scale."""
    return units * time_scale * 1000.0


def aggregate_cells(
    trials: Iterable[Mapping[str, Any]],
    *,
    group_by: Sequence[str] = ("backend", "hb_interval", "hb_timeout"),
) -> list[dict]:
    """Fold per-trial outcomes into per-cell detection statistics.

    Each trial is ``{*group_by keys, "latency": float | None}`` (``None`` =
    missed).  A cell whose every trial missed still appears — with
    ``median/q1/q3/iqr`` set to ``None`` and the missed count telling the
    story — because an empty heatmap cell is a finding, not a KeyError.
    """
    cells: dict[tuple, dict] = {}
    for trial in trials:
        key = tuple(trial[name] for name in group_by)
        cell = cells.setdefault(
            key,
            {**{name: trial[name] for name in group_by}, "trials": 0, "missed": 0, "_lat": []},
        )
        cell["trials"] += 1
        if trial.get("latency") is None:
            cell["missed"] += 1
        else:
            cell["_lat"].append(float(trial["latency"]))
    results = []
    for key in sorted(cells, key=repr):
        cell = cells[key]
        stats = median_iqr(cell.pop("_lat"))
        cell.update(stats or {"median": None, "q1": None, "q3": None, "iqr": None})
        results.append(cell)
    return results


# ----------------------------------------------------------------------
# CSV shapes (Snippet 1 §9)
# ----------------------------------------------------------------------
def _ms(value: float | None, time_scale: float) -> str:
    return "" if value is None else f"{units_to_ms(value, time_scale):.3f}"


def heatmap_csv(cells: Sequence[Mapping[str, Any]], *, time_scale: float) -> str:
    """Rows = ``hb_timeout_ms``, columns = ``hb_interval_ms``, value = median ms.

    Cells with no surviving latency sample render empty (missed-only cells).
    """
    intervals = sorted({cell["hb_interval"] for cell in cells})
    timeouts = sorted({cell["hb_timeout"] for cell in cells})
    by_key = {(cell["hb_timeout"], cell["hb_interval"]): cell for cell in cells}
    header = ["hb_timeout_ms"] + [
        f"{units_to_ms(interval, time_scale):.0f}" for interval in intervals
    ]
    lines = [",".join(header)]
    for timeout in timeouts:
        row = [f"{units_to_ms(timeout, time_scale):.0f}"]
        for interval in intervals:
            cell = by_key.get((timeout, interval))
            row.append(_ms(None if cell is None else cell["median"], time_scale))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def scatter_csv(cells: Sequence[Mapping[str, Any]], *, time_scale: float) -> str:
    """One row per cell: backend, missed, parameters, median and IQR in ms."""
    header = (
        "backend,missed,trials,hb_interval_ms,hb_timeout_ms,"
        "median_detection_ms,iqr_detection_ms"
    )
    lines = [header]
    for cell in cells:
        lines.append(
            ",".join(
                [
                    str(cell.get("backend", "")),
                    str(cell["missed"]),
                    str(cell["trials"]),
                    f"{units_to_ms(cell['hb_interval'], time_scale):.0f}",
                    f"{units_to_ms(cell['hb_timeout'], time_scale):.0f}",
                    _ms(cell["median"], time_scale),
                    _ms(cell["iqr"], time_scale),
                ]
            )
        )
    return "\n".join(lines) + "\n"
