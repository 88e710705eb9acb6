"""The real asyncio/TCP transport backend (ROADMAP item 3).

Everything under this package executes the *same* :class:`ProcessProgram`
objects the discrete-event simulator runs — but as real OS processes
exchanging length-prefixed JSON frames over real sockets, with JSONL event
logs on a shared monotonic time base and a fault injector that kills or
suspends victims at scheduled times.

Layout:

* :mod:`~repro.transport.framing` — length-prefixed JSON message framing;
* :mod:`~repro.transport.events` — JSONL event logs (write + read) and
  ``load_trace``, which folds a run's logs into the simulator's ``RunTrace``;
* :mod:`~repro.transport.context` — the asyncio trampoline implementing
  :class:`~repro.context.AbstractProcessContext` over sockets;
* :mod:`~repro.transport.node` — one node process
  (``python -m repro.transport.node``);
* :mod:`~repro.transport.faults` — fault plans resolved from a spec's
  crash schedule;
* :mod:`~repro.transport.orchestrator` — spawns N nodes, injects faults,
  loads the logs and judges them with ``spec.checks`` like any simulated
  run, returning a :class:`~repro.runtime.engine.RunRecord`;
* :mod:`~repro.transport.validate` — E11's presentation functions
  (per-cell median + IQR, heatmap/scatter CSVs);
* ``python -m repro.transport`` — a small CLI front door for one-off runs.

Select the backend per run with ``ScenarioSpec(backend="real")`` (or
``scenario(...).backend("real", time_scale=0.05)``); ``Engine.run`` and
``execute_spec`` dispatch here without any program or detector changes.
"""

from .validate import aggregate_cells, heatmap_csv, scatter_csv

__all__ = ["aggregate_cells", "heatmap_csv", "scatter_csv"]
