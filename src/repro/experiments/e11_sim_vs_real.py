"""E11 — sim-vs-real validation: heartbeat detection latency on both backends.

The simulator's claims are only as good as its model of time.  E11 runs the
*same* heartbeat scenarios (same :class:`~repro.runtime.spec.ScenarioSpec`,
same program, same check semantics) on the discrete-event simulator and on
the real asyncio/TCP backend, sweeping the (``hb_interval`` × ``hb_timeout``)
grid of SNIPPETS.md Snippet 1 §9.  Each cell aggregates several trials into a
median detection latency with Tukey IQR, and the module writes the Snippet's
two CSV shapes — one heatmap per backend plus a combined scatter table — so
the backends can be eyeballed side by side in identical units (milliseconds
at the shared ``time_scale``).

The claim under test: on both backends the median detection latency sits
inside ``[hb_timeout − hb_interval, hb_timeout + hb_interval]`` — detection
is dominated by the timeout discipline, not by transport artefacts.  The
summary reports the worst per-cell divergence between the backends.

Unlike E1–E10 this experiment measures *wall-clock* behaviour: its real-
backend half is inherently nondeterministic, so it is registered in
``EXPERIMENTS`` (runnable by name) but deliberately kept out of
``ALL_EXPERIMENTS``, the digest manifest, and the CLI's default selection.

CSV output lands in ``$REPRO_E11_OUT`` (default ``./e11_out``).
"""

from __future__ import annotations

import os
from pathlib import Path

from ..runtime import ScenarioSpec
from ..runtime.spec import RealBackend
from ..transport.__main__ import build_heartbeat_spec
from ..transport.validate import aggregate_cells, heatmap_csv, scatter_csv, units_to_ms
from .base import Call, Experiment

__all__ = ["run"]

DESCRIPTION = "Sim-vs-real heartbeat detection latency over an (hb_interval x hb_timeout) grid"

_NODES = 3
_FAIL_AT = 6.0
_BACKENDS = ("sim", "real")
#: Per-message drop probability of the lossy cell: one ``.network(lossy(p))``
#: spec, applied to the simulator's schedule on sim and to every TCP link on
#: real.  Lossy cells exercise the same envelope claim under
#: retransmission-free heartbeat loss, but only loss-free cells *assert* it
#: (summary ``all_in_envelope``).
_LOSS = 0.15


def _make_spec(config: dict) -> ScenarioSpec:
    return build_heartbeat_spec(
        nodes=_NODES,
        hb_interval=config["hb_interval"],
        hb_timeout=config["hb_timeout"],
        fail_at=_FAIL_AT,
        seed=config["seed"],
        backend=config["backend"],
        time_scale=RealBackend.time_scale,
        loss=config["loss"],
        name=(
            f"E11-{config['backend']}-i{config['hb_interval']}-t{config['hb_timeout']}"
            f"-l{config['loss']}-r{config['repetition']}"
        ),
    )


def _work(quick: bool, seed: int) -> list[Call]:
    if quick:
        intervals = [1.0, 2.0]
        timeouts = [3.0, 6.0]
        trials = 3
    else:
        intervals = [0.5, 1.0, 1.5]
        timeouts = [3.0, 4.5, 6.0]
        trials = 5

    # The full (interval × timeout) grid runs loss-free; one extra lossy cell
    # per backend (the smallest grid corner under _LOSS) checks that both
    # backends degrade the same way when links drop messages.
    grid = [
        {"hb_interval": hb_interval, "hb_timeout": hb_timeout, "loss": 0.0}
        for hb_interval in intervals
        for hb_timeout in timeouts
    ]
    grid.append({"hb_interval": intervals[0], "hb_timeout": timeouts[0], "loss": _LOSS})

    # One config per (backend, cell, trial); trial seeds follow the
    # ParameterSweep convention (base + combo_index * reps + repetition) so
    # re-runs are reproducible and sim trials differ within a cell.
    cells = [{"backend": backend, **cell} for backend in _BACKENDS for cell in grid]
    configs = [
        {**cell, "seed": seed + combo * trials + repetition, "repetition": repetition}
        for combo, cell in enumerate(cells)
        for repetition in range(trials)
    ]
    return [("run_sweep", _make_spec, configs)]


_COLUMNS = (
    "backend",
    "hb_interval",
    "hb_timeout",
    "loss",
    "trials",
    "missed",
    "median_ms",
    "iqr_ms",
    "in_envelope",
)


def _report(rows: list[dict]) -> tuple[list[dict], dict]:
    """Fold the trials into cells, write the CSVs, and judge the envelope."""
    cells = aggregate_cells(
        [{**row, "latency": row.get("hb_detection_time")} for row in rows],
        group_by=("backend", "hb_interval", "hb_timeout", "loss"),
    )
    reliable = [cell for cell in cells if cell["loss"] == 0.0]
    out_dir = Path(os.environ.get("REPRO_E11_OUT", "e11_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    for backend in _BACKENDS:
        backend_cells = [cell for cell in reliable if cell["backend"] == backend]
        path = out_dir / f"heatmap_{backend}.csv"
        path.write_text(heatmap_csv(backend_cells, time_scale=RealBackend.time_scale))
    (out_dir / "scatter.csv").write_text(
        scatter_csv(reliable, time_scale=RealBackend.time_scale)
    )

    table = [
        {
            "backend": cell["backend"],
            "hb_interval": cell["hb_interval"],
            "hb_timeout": cell["hb_timeout"],
            "loss": cell["loss"],
            "trials": cell["trials"],
            "missed": cell["missed"],
            "median_ms": _round_ms(cell["median"]),
            "iqr_ms": _round_ms(cell["iqr"]),
            "in_envelope": _in_envelope(cell),
        }
        for cell in cells
    ]

    divergences = _divergence_ms(reliable)
    summary = {
        "cells": len(cells),
        "trials_per_cell": max(cell["trials"] for cell in cells),
        "missed_total": sum(cell["missed"] for cell in cells),
        # Only loss-free cells assert the timeout-discipline envelope:
        # under link loss a heartbeat round can be dropped outright, so the
        # lossy cells are reported (rows carry in_envelope) but not gated.
        "all_in_envelope": all(
            row["in_envelope"]
            for row in table
            if row["median_ms"] is not None and row["loss"] == 0.0
        ),
        "max_abs_divergence_ms": (
            None if not divergences else round(max(abs(d) for d in divergences.values()), 3)
        ),
        "csv_dir": str(out_dir),
    }
    return table, summary


def _round_ms(units: float | None) -> float | None:
    if units is None:
        return None
    return round(units_to_ms(units, RealBackend.time_scale), 3)


def _in_envelope(cell: dict) -> bool | None:
    """Median latency within ``[hb_timeout − hb_interval, hb_timeout + hb_interval]``."""
    if cell["median"] is None:
        return None
    low = cell["hb_timeout"] - cell["hb_interval"]
    high = cell["hb_timeout"] + cell["hb_interval"]
    return low <= cell["median"] <= high


def _divergence_ms(cells: list[dict]) -> dict[tuple, float]:
    """Per-(interval, timeout) real − sim median gap, in milliseconds."""
    medians: dict[tuple, dict[str, float]] = {}
    for cell in cells:
        if cell["median"] is None:
            continue
        key = (cell["hb_interval"], cell["hb_timeout"])
        medians.setdefault(key, {})[cell["backend"]] = cell["median"]
    return {
        key: units_to_ms(pair["real"] - pair["sim"], RealBackend.time_scale)
        for key, pair in medians.items()
        if "real" in pair and "sim" in pair
    }


run = Experiment("E11", DESCRIPTION, _COLUMNS, _work, _report, deterministic=False)
