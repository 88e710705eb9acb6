"""The fabric coordinator: fan chunks out, journal results, merge in order.

The coordinator owns a *state directory*::

    state/
      plan.json                   # the frozen plan this state belongs to
      shards/run00-chunk0003.jsonl   # one journal line per finished item
      merged.jsonl                # final output, in global input order
      partial.json                # only after a degraded run: what is missing

and drives worker subprocesses (``python -m repro.fabric worker``) through
the :mod:`~repro.fabric.protocol`.  Every ``result`` frame is appended to the
chunk's shard journal *the moment it arrives* — the journal, not worker
memory, is the source of truth — so at any instant the state directory holds
every completed item.

**Crash story.**  A worker dying (EOF on its pipe, or an ``error`` frame)
requeues only its chunk's *unfinished* items, up to ``max_retries`` per
chunk, and a replacement worker is spawned — with decorrelated-jitter backoff
between consecutive deaths, so a crash-looping environment is not hammered.
A worker that stops making progress (SIGSTOP, a hung simulation, a dead NFS
mount) is detected by the per-chunk ``progress_timeout`` and killed like any
other death: a stalled worker can slow a run down, never hang it.  The
coordinator itself dying is handled by construction: a restarted coordinator
re-reads the plan, loads every journaled result whose ``(index, key)`` still
matches, and dispatches only what is missing — resume is just "run again with
the same state dir".  Items already in the shared
:class:`~repro.runtime.cache.RunCache` are likewise served without
re-execution (workers consult it per item).

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
for 1 worker or 40, first run or third resume, which is what the manifest
gate (``digest_manifest.py --fabric``) checks mechanically.
"""

from __future__ import annotations

import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro

from ..errors import ReproError
from ..retry import RetryPolicy
from ..runtime.cache import RunCache
from . import protocol
from .digests import CORE_EXPERIMENTS, fold_digests, fold_named
from .plan import FabricPlan, WorkItem
from .work import ItemResult

__all__ = ["FabricError", "SimulatedCrash", "FabricResult", "Coordinator"]

#: Chunks dispatched per worker (load-balance granularity), mirroring the
#: executors' CHUNKS_PER_WORKER.
DEFAULT_CHUNK_MULTIPLIER = 4

#: Default per-worker progress deadline (seconds without a journaled result,
#: a HELLO, or a CHUNK_DONE before the worker is declared stalled and
#: killed).  Generous — a single quick-mode item takes well under a second —
#: but finite, so a SIGSTOP'd or hung worker delays a run instead of hanging
#: it.  Tests and chaos campaigns pass something much smaller.
DEFAULT_PROGRESS_TIMEOUT = 120.0

#: Backoff between a worker death and its replacement's spawn.  Healthy runs
#: never consecutive-die, so the first respawn is near-instant; a
#: crash-looping fleet (bad interpreter, OOM killer) backs off toward the cap
#: instead of fork-bombing the host.  The delays iterator is reset whenever
#: any result arrives (= the fabric is making progress again).
RESPAWN_RETRY = RetryPolicy(base=0.05, cap=2.0, max_attempts=1_000_000)


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
        """Whether every item's digest record survived (see work.py)."""
        return not self.quarantined and all(
            result.digests_complete for result in self.results
        )

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
        """A digest manifest shaped like ``benchmarks/digest_manifest.py``'s.

        ``ALL`` folds whichever of the frozen E1–E9 core was planned; ``FULL``
        folds every planned experiment — so a full-plan fabric manifest is
        directly comparable to a saved serial manifest.
        """
        manifest = self.experiment_digests()
        names = list(manifest)
        manifest["ALL"] = fold_named(manifest, [n for n in names if n in CORE_EXPERIMENTS])
        manifest["FULL"] = fold_named(manifest, names)
        return manifest


class _Worker:
    """One worker subprocess plus the thread draining its result stream."""

    def __init__(self, number: int, command: list[str], events: "queue.Queue") -> None:
        self.number = number
        self.chunk: "_Chunk | None" = None
        self.greeted = False  # has it sent HELLO yet?
        self.last_progress = time.monotonic()
        self.fail_cause: str | None = None  # set before a deliberate kill
        env = dict(os.environ)
        # Make the library importable in the worker no matter how the
        # coordinator itself was launched (installed, PYTHONPATH=src, tests).
        library_root = str(Path(repro.__file__).resolve().parent.parent)
        paths = env.get("PYTHONPATH", "")
        if library_root not in paths.split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{library_root}{os.pathsep}{paths}" if paths else library_root
            )
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # workers share the coordinator's stderr
            env=env,
        )
        self._reader = threading.Thread(
            target=self._drain, args=(events,), daemon=True
        )
        self._reader.start()

    def _drain(self, events: "queue.Queue") -> None:
        try:
            for message in protocol.iter_messages(self.process.stdout):
                events.put((self.number, message))
        except Exception as error:  # torn frame on kill — report as death
            events.put((self.number, {"type": protocol.ERROR, "error": str(error)}))
        events.put((self.number, None))

    def send(self, type: str, **fields: Any) -> bool:
        try:
            protocol.write_message(self.process.stdin, type, **fields)
            return True
        except (BrokenPipeError, OSError):
            return False

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)

    def reap(self) -> None:
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self.process.wait()
        self._reader.join(timeout=5)


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
    """Execute a :class:`FabricPlan` across worker subprocesses; see module doc."""

    def __init__(
        self,
        plan: FabricPlan | None = None,
        *,
        state_dir: str | os.PathLike,
        workers: int = 2,
        cache: RunCache | str | None = None,
        max_retries: int = 2,
        chunk_multiplier: int = DEFAULT_CHUNK_MULTIPLIER,
        python: str = sys.executable,
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
        self.chunk_multiplier = chunk_multiplier
        self.python = python
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

    def _load_journaled(self) -> dict[int, ItemResult]:
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
        have = self._load_journaled()
        resumed = len(have)
        pending = [item for item in self.plan.items if item.index not in have]
        stats = {
            "items": len(self.plan.items),
            "from_journal": resumed,
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
        for source in ("fresh", "run-cache", "fabric-cache"):
            stats[source.replace("-", "_")] = sum(
                1 for result in results if result.source == source
            )
        merged = Path(merged_path) if merged_path else self.state_dir / "merged.jsonl"
        with open(merged, "w", encoding="utf-8") as handle:
            for result in results:
                handle.write(json.dumps(result.row, sort_keys=True, default=str) + "\n")
        return FabricResult(
            plan=self.plan,
            results=results,
            stats=stats,
            merged_path=merged,
            quarantined=quarantined,
        )

    def _worker_command(self) -> list[str]:
        command = [self.python, "-m", "repro.fabric", "worker"]
        if self.cache is not None:
            command += ["--cache", str(self.cache.root)]
        return command

    def _dispatch(
        self,
        pending: list[WorkItem],
        have: dict[int, ItemResult],
        stats: dict,
        quarantined: dict[int, dict],
        *,
        run_prefix: str,
    ) -> None:
        chunk_count = min(len(pending), self.workers * self.chunk_multiplier)
        sliced = FabricPlan(items=pending).chunk(chunk_count)
        todo: "queue.Queue[_Chunk]" = queue.Queue()
        for number, items in enumerate(sliced):
            todo.put(_Chunk(number=number, items=items))
        next_chunk_number = len(sliced)
        outstanding = len(sliced)
        completed_chunks = 0
        results_seen = 0
        chaos_kill_armed = self.chaos_kill_worker_after is not None
        chaos_stall_armed = self.chaos_stall_worker_after is not None
        events: "queue.Queue[tuple[int, dict | None]]" = queue.Queue()
        command = self._worker_command()
        fleet: dict[int, _Worker] = {}
        next_number = 0
        # Replacement spawns are deferred through this schedule (monotonic
        # deadlines) so consecutive deaths back off instead of crash-looping.
        respawn_rng = random.Random(f"fabric-respawn:{run_prefix}")
        respawn_delays = RESPAWN_RETRY.delays(respawn_rng)
        respawn_at: list[float] = []
        # The event loop ticks at least this often even when no worker says
        # anything — that is what makes stall detection and deferred respawns
        # immune to a fleet that has gone completely silent (all SIGSTOP'd).
        tick = 0.25
        if self.progress_timeout is not None:
            tick = min(tick, max(0.05, self.progress_timeout / 4))

        def spawn() -> None:
            nonlocal next_number
            worker = _Worker(next_number, command, events)
            fleet[next_number] = worker
            next_number += 1

        def capacity() -> int:
            return min(self.workers, outstanding)

        def assign(worker: _Worker) -> None:
            try:
                chunk = todo.get_nowait()
            except queue.Empty:
                return
            worker.chunk = chunk
            worker.last_progress = time.monotonic()
            if not worker.send(
                protocol.CHUNK,
                chunk=chunk.number,
                items=[item.to_dict() for item in chunk.items],
            ):
                # Dead before the first frame: the reader thread will deliver
                # the EOF event, which requeues the chunk through on_death.
                pass

        def feed_idle() -> None:
            for worker in list(fleet.values()):
                if worker.chunk is None and worker.greeted:
                    assign(worker)

        def journal_path(chunk: _Chunk) -> Path:
            return self.shards_dir / f"{run_prefix}-chunk{chunk.number:04d}.jsonl"

        def schedule_respawn() -> None:
            if len(fleet) + len(respawn_at) < capacity():
                delay = next(respawn_delays, RESPAWN_RETRY.cap)
                respawn_at.append(time.monotonic() + delay)

        def process_respawns() -> None:
            now = time.monotonic()
            for deadline in [d for d in respawn_at if d <= now]:
                respawn_at.remove(deadline)
                if len(fleet) < capacity():
                    spawn()

        def check_stalls() -> None:
            if self.progress_timeout is None:
                return
            now = time.monotonic()
            for worker in list(fleet.values()):
                if worker.fail_cause is not None:
                    continue  # already killed; waiting for its EOF event
                # A worker is on the hook when it holds a chunk, or when it
                # has not even said HELLO yet (a SIGSTOP between fork and
                # greeting would otherwise pin a fleet slot forever).
                on_the_hook = worker.chunk is not None or not worker.greeted
                if on_the_hook and now - worker.last_progress > self.progress_timeout:
                    stats["stalled_workers"] += 1
                    what = (
                        worker.chunk.label if worker.chunk is not None else "its greeting"
                    )
                    worker.fail_cause = (
                        f"stalled: no progress on {what} for "
                        f"{self.progress_timeout:g}s (suspended or hung); killed"
                    )
                    print(
                        f"fabric: worker {worker.number} {worker.fail_cause}",
                        file=sys.stderr,
                    )
                    worker.kill()  # EOF flows through the event queue → on_death

        def on_death(worker: _Worker) -> None:
            nonlocal outstanding, next_chunk_number
            stats["worker_deaths"] += 1
            cause = worker.fail_cause or "worker exited (EOF on result stream)"
            chunk = worker.chunk
            worker.chunk = None
            worker.kill()
            worker.reap()
            fleet.pop(worker.number, None)
            if chunk is not None:
                remainder = [item for item in chunk.items if item.index not in have]
                done = len(chunk.items) - len(remainder)
                chunk.history.append(
                    f"attempt {chunk.retries + 1} on {chunk.label}: {cause} "
                    f"({done}/{len(chunk.items)} item(s) journaled)"
                )
                if not remainder:
                    outstanding -= 1
                elif chunk.retries < self.max_retries:
                    stats["requeued_chunks"] += 1
                    todo.put(
                        _Chunk(
                            number=chunk.number,
                            items=remainder,
                            retries=chunk.retries + 1,
                            history=chunk.history,
                        )
                    )
                elif len(remainder) > 1:
                    # Retries exhausted with several suspects: bisect, so a
                    # single poison item is isolated in O(log n) rounds while
                    # its innocent neighbours complete.
                    stats["bisected_chunks"] += 1
                    mid = len(remainder) // 2
                    print(
                        f"fabric: {chunk.label} exhausted "
                        f"{chunk.retries + 1} attempt(s); bisecting "
                        f"{len(remainder)} unfinished item(s) to isolate the failure",
                        file=sys.stderr,
                    )
                    for half in (remainder[:mid], remainder[mid:]):
                        todo.put(
                            _Chunk(
                                number=next_chunk_number,
                                items=half,
                                history=list(chunk.history),
                            )
                        )
                        next_chunk_number += 1
                    outstanding += 1
                else:
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
                    outstanding -= 1
            if outstanding:
                schedule_respawn()
                feed_idle()

        try:
            for _ in range(min(self.workers, outstanding)):
                spawn()
            # Dispatch loop: every event is a worker message or a death
            # (None); the timeout tick keeps stall detection and deferred
            # respawns running even when no worker can speak.
            while outstanding:
                try:
                    number, message = events.get(timeout=tick)
                except queue.Empty:
                    check_stalls()
                    process_respawns()
                    continue
                process_respawns()
                worker = fleet.get(number)
                if worker is None:
                    continue  # stale event from an already-reaped worker
                if message is None or message["type"] == protocol.ERROR:
                    if message is not None:
                        print(
                            f"fabric: worker {number} failed: "
                            f"{message.get('error', 'unknown error')}",
                            file=sys.stderr,
                        )
                        if worker.fail_cause is None:
                            worker.fail_cause = message.get("error", "unknown error")
                    on_death(worker)
                    continue
                if message["type"] == protocol.HELLO:
                    worker.greeted = True
                    worker.last_progress = time.monotonic()
                    assign(worker)
                elif message["type"] == protocol.RESULT:
                    worker.last_progress = time.monotonic()
                    respawn_delays = RESPAWN_RETRY.delays(respawn_rng)  # healthy again
                    result = ItemResult.from_dict(message["result"])
                    if worker.chunk is not None:
                        with open(journal_path(worker.chunk), "a", encoding="utf-8") as handle:
                            handle.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
                            handle.flush()
                    have[result.index] = result
                    results_seen += 1
                    if (
                        chaos_kill_armed
                        and results_seen >= self.chaos_kill_worker_after
                        and fleet
                    ):
                        chaos_kill_armed = False
                        victim = fleet[min(fleet)]
                        print(
                            f"fabric: chaos-killing worker {victim.number} "
                            f"after {results_seen} results",
                            file=sys.stderr,
                        )
                        victim.kill()
                    if (
                        chaos_stall_armed
                        and results_seen >= self.chaos_stall_worker_after
                        and fleet
                    ):
                        chaos_stall_armed = False
                        busy = [w for w in fleet.values() if w.chunk is not None]
                        victim = min(busy or fleet.values(), key=lambda w: w.number)
                        print(
                            f"fabric: chaos-stalling worker {victim.number} "
                            f"(SIGSTOP) after {results_seen} results",
                            file=sys.stderr,
                        )
                        if victim.process.poll() is None:
                            victim.process.send_signal(signal.SIGSTOP)
                elif message["type"] == protocol.CHUNK_DONE:
                    worker.chunk = None
                    worker.last_progress = time.monotonic()
                    outstanding -= 1
                    completed_chunks += 1
                    if (
                        self.crash_after_chunks is not None
                        and completed_chunks >= self.crash_after_chunks
                        and outstanding
                    ):
                        raise SimulatedCrash(
                            f"simulated coordinator crash after "
                            f"{completed_chunks} chunks ({outstanding} left)"
                        )
                    assign(worker)
        finally:
            for worker in list(fleet.values()):
                worker.send(protocol.SHUTDOWN)
            for worker in list(fleet.values()):
                if worker.chunk is not None or worker.fail_cause is not None:
                    worker.kill()  # busy/stalled worker won't read the frame
                try:
                    worker.process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    # e.g. an idle worker SIGSTOP'd by chaos: it will never
                    # read the shutdown frame, so the polite exit is off.
                    worker.kill()
                worker.reap()


def run_plan(
    plan: FabricPlan | None,
    *,
    state_dir: str | os.PathLike,
    workers: int = 2,
    cache: RunCache | str | None = None,
    **kwargs: Any,
) -> FabricResult:
    """One-call convenience: coordinate ``plan`` to completion."""
    return Coordinator(
        plan, state_dir=state_dir, workers=workers, cache=cache, **kwargs
    ).run()
