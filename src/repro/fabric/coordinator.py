"""The fabric coordinator: fan chunks out, journal results, merge in order.

The coordinator owns a *state directory*::

    state/
      plan.json                   # the frozen plan this state belongs to
      shards/run00-chunk0003.jsonl   # one journal line per finished item
      merged.jsonl                # final output, in global input order
      partial.json                # only after a degraded run: what is missing

and is one of the two policies on top of :class:`repro.runtime.fleet.Fleet`
(the warm :class:`~repro.runtime.executors.WorkerPool` is the other): the
fleet owns the worker processes, their pipes, stall detection and backed-off
respawns; the coordinator decides what each fleet event means.  Every result
is appended to its chunk's shard journal — and flushed — *the moment it
arrives*: the journal, not worker memory, is the source of truth, so at any
instant the state directory holds every completed item.

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
legs) checks mechanically.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from pathlib import Path
from typing import Iterator

from ..analysis.runner import jsonl_line
from ..errors import ReproError
from ..runtime.cache import RunCache
from ..runtime.executors import CHUNKS_PER_WORKER
from ..runtime.fleet import Event, Fleet
from .digests import CORE_EXPERIMENTS, fold_digests, fold_named
from .plan import FabricPlan, WorkItem
from .work import ItemResult, execute_item

__all__ = ["FabricError", "SimulatedCrash", "FabricResult", "Coordinator"]

#: Default per-worker progress deadline (seconds without a result, a
#: greeting or a finished chunk before the worker is declared stalled and
#: killed).  Generous — a single quick-mode item takes well under a second —
#: but finite, so a SIGSTOP'd or hung worker delays a run instead of hanging
#: it.  Tests and chaos campaigns pass something much smaller.
DEFAULT_PROGRESS_TIMEOUT = 120.0

class FabricError(ReproError):
    """The fabric could not complete the plan (retries exhausted, bad state)."""


class SimulatedCrash(FabricError):
    """Raised by ``crash_after_chunks`` to rehearse coordinator death.

    The state directory is left exactly as a real mid-run SIGKILL would leave
    it (journals flushed, no merged output), which is what the resume smoke
    test relies on.
    """


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


@dataclass
class _Chunk:
    number: int
    items: list[WorkItem]
    retries: int = 0
    #: One line per failed attempt across this chunk's whole lineage
    #: (bisected halves inherit a copy) — surfaces in quarantine records.
    history: list[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        first, last = self.items[0], self.items[-1]
        return f"chunk {self.number} (items {first.index}..{last.index})"


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
        chaos_kill_worker_after: int | None = None,
        chaos_stall_worker_after: int | None = None,
        crash_after_chunks: int | None = None,
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
        self.chaos_kill_worker_after = chaos_kill_worker_after
        self.chaos_stall_worker_after = chaos_stall_worker_after
        self.crash_after_chunks = crash_after_chunks
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
        """Every journaled result whose ``(index, key)`` still matches the plan.

        Torn tails (a line cut short by a crash mid-append) and foreign lines
        are skipped: a journal line is either a complete, verifiable result or
        it does not exist.
        """
        have: dict[int, ItemResult] = {}
        items = self.plan.items
        for shard_path in sorted(self.shards_dir.glob("*.jsonl")):
            with open(shard_path, encoding="utf-8") as handle:
                for line in handle:
                    try:
                        payload = json.loads(line)
                        result = ItemResult.from_dict(payload)
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
        pending = [item for item in self.plan.items if item.index not in have]
        stats = {
            "items": len(self.plan.items),
            "from_journal": len(have),
            "dispatched": len(pending),
            "worker_deaths": 0,
            "stalled_workers": 0,
            "requeued_chunks": 0,
            "bisected_chunks": 0,
        }
        quarantined: dict[int, dict] = {}
        if pending:
            run_id = sum(1 for _ in self.shards_dir.glob("run*-chunk*.jsonl"))
            self._dispatch(
                pending, have, stats, quarantined, run_prefix=f"run{run_id:02d}"
            )
        stats["quarantined"] = len(quarantined)

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
        for source in ("fresh", "cached"):
            stats[source] = sum(1 for result in results if result.source == source)
        merged = Path(merged_path) if merged_path else self.state_dir / "merged.jsonl"
        with open(merged, "w", encoding="utf-8") as handle:
            handle.writelines(jsonl_line(result.row) for result in results)
        return FabricResult(
            plan=self.plan,
            results=results,
            stats=stats,
            merged_path=merged,
            quarantined=quarantined,
        )


    def _dispatch(
        self,
        pending: list[WorkItem],
        have: dict[int, ItemResult],
        stats: dict,
        quarantined: dict[int, dict],
        *,
        run_prefix: str,
    ) -> None:
        """Run ``pending`` on a fleet, journaling every result as it arrives."""
        chunk_count = min(len(pending), self.workers * CHUNKS_PER_WORKER)
        todo: "deque[tuple[_Chunk, list[WorkItem]]]" = deque(
            (_Chunk(number, items), items)
            for number, items in enumerate(FabricPlan(items=pending).chunk(chunk_count))
        )
        fresh_numbers = count(len(todo))
        completed_chunks = results_seen = 0
        kill_armed = self.chaos_kill_worker_after is not None
        stall_armed = self.chaos_stall_worker_after is not None

        def rehearse(victim: int, signum: signal.Signals) -> None:
            print(
                f"fabric: chaos: {signum.name} to worker {victim} "
                f"after {results_seen} results",
                file=sys.stderr,
            )
            fleet.signal(victim, signum)

        with closing(Fleet(self.workers, progress_timeout=self.progress_timeout)) as fleet:
            for event in fleet.run(partial(execute_item, cache=self.cache), todo):
                chunk: _Chunk | None = event.tag
                if event.results:
                    journal = self.shards_dir / f"{run_prefix}-chunk{chunk.number:04d}.jsonl"
                    # Closed — so flushed — before anything else can happen.
                    with open(journal, "a", encoding="utf-8") as handle:
                        handle.writelines(
                            json.dumps(result.to_dict(), sort_keys=True) + "\n"
                            for result in event.results
                        )
                    have.update((result.index, result) for result in event.results)
                    results_seen += len(event.results)
                    if kill_armed and results_seen >= self.chaos_kill_worker_after:
                        kill_armed = False
                        rehearse(min(fleet.pids()), signal.SIGKILL)
                    if stall_armed and results_seen >= self.chaos_stall_worker_after:
                        stall_armed = False
                        # The victim must go on to hold work: a busy worker, else
                        # the one that just reported (idle, greeted, fed next).
                        rehearse(min(fleet.pids(busy=True) or [event.worker]), signal.SIGSTOP)
                if event.done:
                    completed_chunks += 1
                    left = len(todo) + len(fleet.pids(busy=True))
                    if (
                        self.crash_after_chunks is not None
                        and completed_chunks >= self.crash_after_chunks
                        and left
                    ):
                        raise SimulatedCrash(
                            f"simulated coordinator crash after "
                            f"{completed_chunks} chunks ({left} left)"
                        )
                elif event.death is not None or event.error is not None:
                    todo.extend(
                        (retry, retry.items)
                        for retry in self._after_failure(
                            event, stats, quarantined, fresh_numbers
                        )
                    )
            stats["stalled_workers"] = fleet.stalls

    def _after_failure(
        self, event: Event, stats: dict, quarantined: dict[int, dict], fresh_numbers: Iterator[int]
    ) -> list[_Chunk]:
        """A chunk was abandoned (worker died / item raised): what runs next?"""
        cause = event.death or f"{type(event.error).__name__}: {event.error}"
        print(f"fabric: worker {event.worker} failed: {cause}", file=sys.stderr)
        if event.death is not None:
            stats["worker_deaths"] += 1
        chunk: _Chunk | None = event.tag
        remainder = list(event.unfinished)
        if chunk is None or not remainder:
            return []  # it died idle, or only the done mark was lost: nothing to redo
        chunk.history.append(
            f"attempt {chunk.retries + 1} on {chunk.label}: {cause} "
            f"({len(chunk.items) - len(remainder)}/{len(chunk.items)} item(s) journaled)"
        )
        if chunk.retries < self.max_retries:
            stats["requeued_chunks"] += 1
            return [
                _Chunk(
                    number=chunk.number,
                    items=remainder,
                    retries=chunk.retries + 1,
                    history=chunk.history,
                )
            ]
        if len(remainder) > 1:
            # Retries exhausted with several suspects: bisect, so a single
            # poison item is isolated in O(log n) rounds while its innocent
            # neighbours complete.
            stats["bisected_chunks"] += 1
            mid = len(remainder) // 2
            print(
                f"fabric: {chunk.label} exhausted {chunk.retries + 1} attempt(s); "
                f"bisecting {len(remainder)} unfinished item(s) to isolate the failure",
                file=sys.stderr,
            )
            return [
                _Chunk(number=next(fresh_numbers), items=half, history=list(chunk.history))
                for half in (remainder[:mid], remainder[mid:])
            ]
        item = remainder[0]
        quarantined[item.index] = {
            "index": item.index,
            "label": item.label,
            "attempts": len(chunk.history),
            "history": list(chunk.history),
        }
        print(
            f"fabric: quarantining poison item {item.label} after "
            f"{len(chunk.history)} failed attempt(s)",
            file=sys.stderr,
        )
        return []
