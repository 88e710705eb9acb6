"""The real asyncio/TCP transport backend.

Everything under this package executes the *same* :class:`ProcessProgram`
objects the discrete-event simulator runs — but as real OS processes
exchanging length-prefixed JSON frames over real sockets, with JSONL event
logs on a shared monotonic time base and a fault injector that kills or
suspends victims at scheduled times.

Layout:

* :mod:`~repro.transport.framing` — length-prefixed JSON message framing;
* :mod:`~repro.transport.context` — the asyncio runtime behind
  :class:`~repro.context.ProcessContext`: the simulator's one trampoline
  with event-loop timers, sockets and a log;
* :mod:`~repro.transport.node` — one node process
  (``python -m repro.transport.node``);
* :mod:`~repro.transport.faults` — the fault timeline read off a spec's
  crash schedule;
* :mod:`~repro.transport.orchestrator` — spawns N nodes, injects faults,
  folds their :mod:`repro.events` logs into the simulator's ``RunTrace``
  (``load_trace``) and judges it with ``spec.checks`` like any simulated
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
