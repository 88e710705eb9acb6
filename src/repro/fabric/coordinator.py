"""The fabric coordinator: fan chunks out, journal results, merge in order.

The coordinator owns a *state directory*::

    state/
      plan.json            # the frozen plan this state belongs to
      shards/run00.jsonl   # one event journal per dispatching run
      merged.jsonl         # final output, in global input order
      partial.json         # only after a degraded run: what is missing

and is one of the two policies on top of :class:`repro.runtime.fleet.Fleet`
(the warm :class:`~repro.runtime.executors.WorkerPool` is the other): the
fleet owns the worker processes, their pipes, stall detection and backed-off
respawns; the coordinator decides what each fleet event means.

**The journal.**  Each run that dispatches anything writes one
:class:`~repro.events.EventLog`, ``shards/runNN.jsonl`` (``NN`` counts the
runs before it), with exactly two line kinds, each flushed *the moment it
happens*:

* ``result`` — one finished item: the :class:`~repro.fabric.work.ItemResult`
  fields;
* ``failed`` — one fleet failure: the worker, whether it ``died``, the
  ``cause``; for a worker that held a chunk also the chunk number, its
  ``items`` range, the ``attempt``, ``journaled`` of ``of`` items, the
  ``unfinished`` indices and what came ``next`` (``requeued``, ``bisected``
  or ``quarantined``; ``null`` when nothing is left to redo).

The journal, not worker memory, is the source of truth: at any instant the
state directory holds every completed item, and the run's failure story is
read from those lines — the death / requeue / bisect / quarantine counts in
``stats`` count this run's ``failed`` lines, a quarantined item's
``partial.json`` history is the ``failed`` lines whose unfinished indices
contain it, and each ``failed`` line is one line on stderr.

**Crash story.**  A worker dying, or an item raising, requeues only its
chunk's *unfinished* items, up to ``max_retries`` per chunk.  A worker that
stops making progress (SIGSTOP, a hung simulation, a dead NFS mount) is
killed by the fleet after ``progress_timeout`` and handled like any other
death: a stalled worker can slow a run down, never hang it.  The
coordinator itself dying is handled by construction: a restarted coordinator
re-reads the plan, loads every journaled result whose ``(index, key)`` still
matches, and dispatches only what is missing — resume is just "run again with
the same state dir".  Items already in the shared
:class:`~repro.runtime.cache.RunCache` — by an earlier fabric run or by an
ordinary ``Engine(cache=…)`` run — are likewise served without re-execution,
digests included (workers consult it per item; the cache travels inside the
dispatched callable).

**Graceful degradation.**  A chunk that exhausts its retries is *bisected*:
its unfinished half-chunks re-enter the queue with a fresh retry budget, so
one poison item (a config that reliably kills its worker) is isolated in
O(log chunk-size) rounds instead of sinking its whole chunk.  A poison item
that fails alone is **quarantined**: the run completes without it, the exact
missing indices land in ``partial.json`` (with the full per-attempt failure
history), and ``run()`` either raises a :class:`FabricError` naming them
(default) or — with ``allow_partial=True`` — returns the explicit partial
merge.  Re-running with the same state dir retries quarantined items with a
fresh budget.  Missing items *not* accounted for by quarantine are still a
hard error: silence is never an outcome.

**Determinism.**  Results are merged by global item index, never by
completion order, so the merged JSONL — and the digest fold — is identical
for 1 worker or 40, first run or third resume, which is what
``python -m repro.verify`` (its ``fabric``, ``kill``, ``stall`` and ``resume``
legs) checks mechanically.  It carries no fault hooks: those legs pass
``fleet=`` a :class:`~repro.verify.faults.ChaosFleet` that breaks the run.

**The fleet seam.**  ``fleet=`` is any callable ``(workers, progress_timeout=…)``
returning a fleet.  It defaults to :class:`~repro.runtime.fleet.Fleet`,
imported when the coordinator is built rather than when this module is, so a
process that only plans, merges or reads a state directory never loads
``multiprocessing``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from ..analysis.runner import jsonl_line
from ..errors import ReproError
from ..events import EventLog, read_events
from ..runtime.cache import RunCache
from ..runtime.executors import CHUNKS_PER_WORKER
from .digests import CORE_EXPERIMENTS, fold_digests, fold_named
from .plan import FabricPlan, WorkItem
from .work import ItemResult, execute_item

if TYPE_CHECKING:
    from ..runtime.fleet import Event, Fleet

__all__ = ["FabricError", "FabricResult", "Coordinator"]

#: Default per-worker progress deadline (seconds without a result, a
#: greeting or a finished chunk before the worker is declared stalled and
#: killed).  Generous — a single quick-mode item takes well under a second —
#: but finite, so a SIGSTOP'd or hung worker delays a run instead of hanging
#: it.  Tests and ``repro.verify``'s ``stall`` leg pass something much smaller.
DEFAULT_PROGRESS_TIMEOUT = 120.0

class FabricError(ReproError):
    """The fabric could not complete the plan (retries exhausted, bad state)."""


@dataclass
class FabricResult:
    """A completed fabric run: ordered rows, digests, and provenance counts.

    ``quarantined`` is empty for a full run; for a partial run it maps each
    missing global index to its quarantine record (label, attempts, the
    per-attempt failure history) — the same content as ``partial.json``.
    """

    plan: FabricPlan
    results: list[ItemResult]
    stats: dict = field(default_factory=dict)
    merged_path: Path | None = None
    quarantined: dict[int, dict] = field(default_factory=dict)

    @property
    def rows(self) -> list[dict]:
        return [dict(result.row) for result in self.results]

    @property
    def partial(self) -> bool:
        return bool(self.quarantined)

    @property
    def digests_complete(self) -> bool:
        """Whether the digest fold covers the whole plan (nothing quarantined)."""
        return not self.quarantined

    def experiment_digests(self) -> dict[str, str]:
        """Per-experiment folded digests, in the serial capture order.

        On a partial run, experiments with quarantined items are omitted —
        a digest folded over a hole would be silently wrong.
        """
        spans = self.plan.experiment_spans()
        by_index = {result.index: result for result in self.results}
        digests = {}
        for name, (start, end) in spans.items():
            if all(index in by_index for index in range(start, end)):
                folded = fold_digests(
                    digest
                    for index in range(start, end)
                    for digest in by_index[index].digests
                )
                digests[name] = f"{folded:016x}"
        return digests

    def manifest(self) -> dict[str, str]:
        """The digest manifest: one folded digest per experiment, ``ALL``, ``FULL``.

        ``ALL`` folds whichever of the frozen E1–E9 core was planned; ``FULL``
        folds every planned experiment — so the manifest of the full quick
        plan is directly comparable to the values ``repro.verify`` pins.
        """
        manifest = self.experiment_digests()
        names = list(manifest)
        manifest["ALL"] = fold_named(manifest, [n for n in names if n in CORE_EXPERIMENTS])
        manifest["FULL"] = fold_named(manifest, names)
        return manifest

    def write_merged(self, path: str | os.PathLike) -> Path:
        """Write the rows, one JSONL line each in plan order, to ``path``."""
        self.merged_path = Path(path)
        self.merged_path.write_text(
            "".join(jsonl_line(result.row) for result in self.results), encoding="utf-8"
        )
        return self.merged_path


@dataclass
class _Chunk:
    number: int
    items: list[WorkItem]
    retries: int = 0


def _story(line: dict) -> str:
    """A chunk's ``failed`` line as one attempt of the story ``partial.json`` keeps."""
    first, last = line["items"]
    return (
        f"attempt {line['attempt']} on chunk {line['chunk']} (items {first}..{last}): "
        f"{line['cause']} ({line['journaled']}/{line['of']} item(s) journaled)"
    )


class Coordinator:
    """Execute a :class:`FabricPlan` across a worker fleet; see module doc."""

    def __init__(
        self,
        plan: FabricPlan | None = None,
        *,
        state_dir: str | os.PathLike,
        workers: int = 2,
        cache: RunCache | str | None = None,
        max_retries: int = 2,
        progress_timeout: float | None = DEFAULT_PROGRESS_TIMEOUT,
        allow_partial: bool = False,
        fleet: Callable[..., Fleet] | None = None,
    ) -> None:
        if workers < 1:
            raise FabricError(f"workers must be at least 1, got {workers}")
        if progress_timeout is not None and progress_timeout <= 0:
            raise FabricError(
                f"progress_timeout must be positive (or None to disable stall "
                f"detection), got {progress_timeout}"
            )
        self.state_dir = Path(state_dir)
        self.workers = workers
        self.cache = RunCache.coerce(cache)
        self.max_retries = max_retries
        self.progress_timeout = progress_timeout
        self.allow_partial = allow_partial
        if fleet is None:
            from ..runtime.fleet import Fleet  # here: planning never loads multiprocessing

            fleet = Fleet
        self.fleet = fleet
        self.plan = self._adopt_plan(plan)

    # -- state-directory handling --------------------------------------
    def _adopt_plan(self, plan: FabricPlan | None) -> FabricPlan:
        """Freeze the plan into the state dir, or load/verify the frozen one.

        A state directory belongs to exactly one plan: resuming with a
        different plan would merge unrelated results, so a mismatch is an
        error, not a silent overwrite.
        """
        plan_path = self.state_dir / "plan.json"
        if plan_path.exists():
            frozen = FabricPlan.read(plan_path)
            if plan is not None and plan.to_dict() != frozen.to_dict():
                raise FabricError(
                    f"state dir {self.state_dir} holds a different plan "
                    f"({len(frozen)} items, experiments {frozen.experiments}); "
                    "use a fresh directory or resume without passing a plan"
                )
            return frozen
        if plan is None:
            raise FabricError(f"no plan given and none frozen in {self.state_dir}")
        self.state_dir.mkdir(parents=True, exist_ok=True)
        plan.write(plan_path)
        return plan

    @property
    def shards_dir(self) -> Path:
        return self.state_dir / "shards"

    @property
    def partial_path(self) -> Path:
        return self.state_dir / "partial.json"

    def journaled(self) -> dict[int, ItemResult]:
        """Every journaled ``result`` whose ``(index, key)`` still matches the plan.

        :func:`~repro.events.read_events` drops torn and non-JSON lines; lines
        of another kind, of the wrong shape or of another plan are dropped
        here: a journal line is either a complete, verifiable result or it
        does not exist.
        """
        have: dict[int, ItemResult] = {}
        items = self.plan.items
        for journal in sorted(self.shards_dir.glob("*.jsonl")):
            for entry in read_events(journal):
                if entry.get("event") != "result":
                    continue
                try:
                    result = ItemResult.from_dict(entry)
                except (ValueError, KeyError, TypeError):
                    continue
                if 0 <= result.index < len(items) and items[result.index].key == result.key:
                    have[result.index] = result
        return have

    # -- the run -------------------------------------------------------
    def run(self, merged_path: str | os.PathLike | None = None) -> FabricResult:
        """Complete the plan (dispatch, retry, resume) and merge the output.

        A run with quarantined items raises a :class:`FabricError` naming
        their exact indices — unless ``allow_partial``, in which case the
        merge proceeds without them and the result says so explicitly
        (``result.partial``, ``result.quarantined``, ``partial.json``).
        """
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        have = self.journaled()
        from_journal = len(have)
        pending = [item for item in self.plan.items if item.index not in have]
        failures: list[dict] = []
        stalls = 0
        if pending:
            earlier = len(list(self.shards_dir.glob("run*.jsonl")))
            journal = self.shards_dir / f"run{earlier:02d}.jsonl"
            with EventLog(journal, epoch=time.monotonic()) as log:
                stalls = self._dispatch(pending, have, log)
            failures = [entry for entry in read_events(journal) if entry["event"] == "failed"]
        quarantined = self._quarantined(failures)

        missing = [item.index for item in self.plan.items if item.index not in have]
        unexplained = [index for index in missing if index not in quarantined]
        if unexplained:
            # Items the dispatcher lost without quarantining them would be a
            # coordinator bug, never a degraded-but-explained outcome.
            raise FabricError(
                f"fabric run finished with {len(unexplained)} missing item(s) "
                f"not accounted for by quarantine: {unexplained[:10]}"
            )

        if quarantined:
            report = {
                "plan_items": len(self.plan.items),
                "missing_indices": sorted(quarantined),
                "items": {
                    str(index): info for index, info in sorted(quarantined.items())
                },
            }
            self.partial_path.write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        elif self.partial_path.exists():
            self.partial_path.unlink()  # a resume completed what was missing

        if quarantined and not self.allow_partial:
            raise FabricError(
                f"{len(quarantined)} item(s) quarantined after exhausting "
                f"retries: indices {sorted(quarantined)} "
                f"(details in {self.partial_path}); re-run with the same state "
                "dir to retry them with a fresh budget, or pass "
                "allow_partial=True / --allow-partial to merge without them"
            )

        results = [
            have[item.index] for item in self.plan.items if item.index in have
        ]
        steps = [line["next"] for line in failures]
        stats = {
            "items": len(self.plan.items),
            "from_journal": from_journal,
            "dispatched": len(pending),
            "worker_deaths": sum(line["died"] for line in failures),
            "stalled_workers": stalls,
            "requeued_chunks": steps.count("requeued"),
            "bisected_chunks": steps.count("bisected"),
            "quarantined": steps.count("quarantined"),
            "fresh": sum(result.source == "fresh" for result in results),
            "cached": sum(result.source == "cached" for result in results),
        }
        result = FabricResult(
            plan=self.plan, results=results, stats=stats, quarantined=quarantined
        )
        result.write_merged(merged_path or self.state_dir / "merged.jsonl")
        return result

    def _quarantined(self, failures: list[dict]) -> dict[int, dict]:
        """Each quarantined item's record: the ``failed`` lines that left it unfinished."""
        records = {}
        for line in failures:
            if line["next"] == "quarantined":
                (index,) = line["unfinished"]
                history = [
                    _story(other) for other in failures if index in other.get("unfinished", ())
                ]
                records[index] = {
                    "index": index,
                    "label": self.plan.items[index].label,
                    "attempts": len(history),
                    "history": history,
                }
        return records

    def _dispatch(self, pending: list[WorkItem], have: dict[int, ItemResult], log: EventLog) -> int:
        """Run ``pending`` on a fleet, journaling every result and failure as it
        happens; return how many stalled workers the fleet killed."""
        chunk_count = min(len(pending), self.workers * CHUNKS_PER_WORKER)
        todo: "deque[tuple[_Chunk, list[WorkItem]]]" = deque(
            (_Chunk(number, items), items)
            for number, items in enumerate(FabricPlan(items=pending).chunk(chunk_count))
        )
        fresh_numbers = count(len(todo))
        with closing(self.fleet(self.workers, progress_timeout=self.progress_timeout)) as fleet:
            for event in fleet.run(partial(execute_item, cache=self.cache), todo):
                for result in event.results:
                    log.log("result", **result.to_dict())
                    have[result.index] = result
                if event.death is not None or event.error is not None:
                    todo.extend(
                        (retry, retry.items)
                        for retry in self._after_failure(event, log, fresh_numbers)
                    )
            return fleet.stalls

    def _after_failure(
        self, event: Event, log: EventLog, fresh_numbers: Iterator[int]
    ) -> list[_Chunk]:
        """A chunk was abandoned (worker died / item raised): journal it, say
        on stderr what happened, and return what runs next."""
        chunk: _Chunk | None = event.tag
        remainder = list(event.unfinished)
        retry: list[_Chunk] = []
        step = None  # it died idle, or only the done mark was lost: nothing to redo
        if chunk is not None and remainder:
            if chunk.retries < self.max_retries:
                step, retry = "requeued", [_Chunk(chunk.number, remainder, chunk.retries + 1)]
            elif len(remainder) > 1:
                # Retries exhausted with several suspects: bisect, so a single
                # poison item is isolated in O(log n) rounds while its innocent
                # neighbours complete.
                mid = len(remainder) // 2
                step = "bisected"
                retry = [
                    _Chunk(next(fresh_numbers), half) for half in (remainder[:mid], remainder[mid:])
                ]
            else:
                step = "quarantined"
        held = {} if chunk is None else {
            "chunk": chunk.number,
            "items": [chunk.items[0].index, chunk.items[-1].index],
            "attempt": chunk.retries + 1,
            "journaled": len(chunk.items) - len(remainder),
            "of": len(chunk.items),
            "unfinished": [item.index for item in remainder],
        }
        line = log.log(
            "failed",
            worker=event.worker,
            died=event.death is not None,
            cause=event.death or f"{type(event.error).__name__}: {event.error}",
            next=step,
            **held,
        )
        what = line["cause"] if chunk is None else _story(line)
        print(f"fabric: worker {event.worker} failed: {what}; next: {step or 'nothing'}", file=sys.stderr)
        return retry
