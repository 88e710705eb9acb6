"""``repro.fabric`` — the distributed sweep fabric.

The paper's tables are statistics over large seed sweeps; the warm pool makes
one in-memory sweep fast, and this package puts the same worker fleet
(:mod:`repro.runtime.fleet`) behind a plan and a journal so a sweep survives
lost workers, a lost coordinator and restarts.  Three pieces, each usable on
its own:

* :mod:`~repro.fabric.plan` — the **deterministic shard planner**: enumerate
  every work item of a registered experiment (or a raw
  :class:`~repro.analysis.runner.ParameterSweep`) *without executing any of
  it*, assign global input-order indices, and partition the item list into
  contiguous chunks.  Items are keyed exactly like the
  :class:`~repro.runtime.cache.RunCache` (``(canonical-spec-hash, seed)`` for
  declarative specs, function-name + canonical config for sweep functions),
  so the plan, the cache, and the workers all speak the same key space;
* :mod:`~repro.fabric.coordinator` — the **coordinator**: fan chunks out to
  the fleet's worker processes, journal every result to per-chunk shard files
  the moment it arrives, requeue chunks whose worker died (bounded retries), and
  **merge deterministically into input order** — the merged JSONL is
  byte-identical to a serial run's, regardless of worker count, completion
  order, crashes, or restarts;
* **resume** — a restarted coordinator re-plans, re-reads its shard journals
  and the shared :class:`RunCache`, skips every item already completed, and
  finishes the sweep idempotently.  Determinism digests travel with every
  result (captured in the worker, stored in the journal and the cache), so
  even a run resumed three crashes deep still proves itself bit-identical to
  serial execution.

Command line::

    python -m repro.fabric plan E1 E9 -o plan.json              # plan only
    python -m repro.fabric run  E1 E9 --dir /tmp/fab --workers 4
    python -m repro.fabric run --dir /tmp/fab --workers 4       # resume
    python -m repro.fabric merge --dir /tmp/fab                 # re-merge shards
    python -m repro.fabric digests --dir /tmp/fab               # manifest

``python -m repro.experiments --shard i/N`` executes one shard of the same
plan in-process (no coordinator), for job arrays and ssh loops.
"""

from .coordinator import Coordinator, FabricResult
from .digests import CORE_EXPERIMENTS, fold_digests, fold_named
from .plan import FabricPlan, PlanningEngine, WorkItem, plan_experiments, plan_sweep
from .work import execute_item

__all__ = [
    "Coordinator",
    "FabricResult",
    "CORE_EXPERIMENTS",
    "fold_digests",
    "fold_named",
    "FabricPlan",
    "PlanningEngine",
    "WorkItem",
    "plan_experiments",
    "plan_sweep",
    "execute_item",
]
