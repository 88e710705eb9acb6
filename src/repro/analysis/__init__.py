"""Run analysis: metrics extraction, convergence, sweeps, and table rendering."""

from .convergence import convergence_statistics, detector_convergence_time
from .metrics import consensus_metrics
from .runner import ExperimentResult, ParameterSweep, aggregate_rows
from .tables import format_value, render_series, render_table

__all__ = [
    "ExperimentResult",
    "ParameterSweep",
    "aggregate_rows",
    "consensus_metrics",
    "convergence_statistics",
    "detector_convergence_time",
    "format_value",
    "render_series",
    "render_table",
]
