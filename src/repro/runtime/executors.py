"""Pluggable executors: how the Engine maps work over configurations.

Two implementations cover the execution spectrum:

* :class:`SerialExecutor` — everything in-process, one item after another;
* :class:`WorkerPool` — one persistent process pool that is spawned lazily on
  first use, warms each worker exactly once (importing the library so later
  tasks only unpickle their inputs), and is reused across every subsequent
  ``map``/``imap`` call until :meth:`WorkerPool.close`.

An executor provides ``map(fn, items) -> list`` returning results *in input
order*, which is what keeps serial and parallel runs row-for-row identical
(every item carries its own seed; nothing depends on completion order);
``imap``, the lazy input-order iterator that yields results as dispatch
chunks complete (the primitive behind ``Engine.run_sweep(..., stream=True)``);
and an idempotent ``close()``.

Work is dispatched to the pool in *chunks*: one task carries a list of items
and returns the list of their results, so a thousand-run sweep costs tens of
task round-trips instead of a thousand.  Each call is cut into
``jobs × CHUNKS_PER_WORKER`` chunks — few enough to amortise transport, enough
for load balance and streaming granularity.

The pool uses the ``spawn`` start method: workers always execute the clean
import path instead of inheriting an arbitrary fork of the parent heap
(monkeypatched classes, mutated module globals, warmed RNGs), which keeps the
determinism digest guarantee — identical digests serial vs. parallel —
independent of parent-process state.  It is also the only start method with
identical behaviour on Linux, macOS, and Windows, and the
fork-from-a-threaded-parent path it replaces is deprecated since Python 3.12.
The price of spawning — a fresh interpreter importing the library in every
worker — is exactly what :class:`WorkerPool` amortises to a one-time cost.

``fn`` and the items must be picklable for the pool (module-level functions
and plain-data configs/specs are; closures are not — keep per-run lambdas
inside the worker function).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Iterator, Protocol, Sequence

from ..errors import ConfigurationError, WorkerCrashError

__all__ = [
    "Executor",
    "SerialExecutor",
    "WorkerPool",
    "executor_for",
    "describe_item",
]

#: Start method of the pool's workers (see the module docstring for why
#: ``spawn`` and not the platform default).
_START_METHOD = "spawn"

#: Dispatch chunks per worker per call.
CHUNKS_PER_WORKER = 4

#: How many in-flight items a :class:`WorkerCrashError` names before truncating.
_MAX_NAMED_CANDIDATES = 8


def describe_item(item: Any) -> str:
    """A short human identification of one work item for error messages.

    Scenario specs (anything with ``name``/``seed`` attributes) and sweep
    configs (mappings with ``name``/``seed`` keys) render as
    ``name[seed=N]``; everything else falls back to a truncated ``repr``.
    """
    name = getattr(item, "name", None)
    seed = getattr(item, "seed", None)
    if name is None and seed is None and isinstance(item, dict):
        name, seed = item.get("name"), item.get("seed")
    if name is not None or seed is not None:
        label = str(name) if name else "<unnamed>"
        return f"{label}[seed={seed}]" if seed is not None else label
    text = repr(item)
    return text if len(text) <= 80 else text[:77] + "..."


def _apply_chunk(fn: Callable[[Any], Any], chunk: list) -> list:
    """Worker-side chunk body: one task applies ``fn`` to a list of items."""
    return [fn(item) for item in chunk]


def _warm_worker() -> None:
    """One-time per-worker warmup: import the library (and its registries).

    Runs as the pool initializer, so every worker pays the interpreter-startup
    and import cost exactly once; afterwards a task only unpickles its inputs.
    Importing :mod:`repro.experiments` pulls in the simulation stack and
    registers every detector/consensus/experiment entry the specs resolve.
    """
    import repro.experiments  # noqa: F401


def _chunk_spans(total: int, chunksize: int) -> list[tuple[int, int]]:
    return [(start, min(start + chunksize, total)) for start in range(0, total, chunksize)]


def _dispatch_chunks(
    pool: ProcessPoolExecutor,
    fn: Callable[[Any], Any],
    work: Sequence[Any],
    chunksize: int,
) -> Iterator[Any]:
    """Submit ``work`` in chunks and yield item results in input order.

    Results stream out as soon as the next-in-order chunk completes, so a
    consumer sees partial results while later chunks are still running; the
    overall order is always the input order.  A :class:`BrokenProcessPool`
    (a worker died — segfault, ``os._exit``, OOM-kill) is re-raised as
    :class:`~repro.errors.WorkerCrashError` naming every item whose result
    was lost, which necessarily includes the item that killed the worker.
    ``submit`` itself can raise it too — a worker that died while the pool
    sat idle breaks the pool before any future exists — so submission happens
    inside the same handler, and the ``finally`` sees whatever was submitted.
    """
    spans = _chunk_spans(len(work), chunksize)
    futures: list = []
    consumed = 0
    try:
        try:
            for start, end in spans:
                futures.append(pool.submit(_apply_chunk, fn, list(work[start:end])))
            for future in futures:
                results = future.result()
                consumed += 1
                yield from results
        except BrokenProcessPool as exc:
            lost = []
            for index, (start, end) in enumerate(spans):
                if index < consumed:
                    continue
                peer = futures[index] if index < len(futures) else None
                if (
                    peer is None
                    or peer.cancelled()
                    or not peer.done()
                    or peer.exception() is not None
                ):
                    lost.extend(work[start:end])
            candidates = [describe_item(item) for item in lost]
            named = ", ".join(candidates[:_MAX_NAMED_CANDIDATES])
            if len(candidates) > _MAX_NAMED_CANDIDATES:
                named += f", ... ({len(candidates) - _MAX_NAMED_CANDIDATES} more)"
            raise WorkerCrashError(
                f"a worker process died while executing {len(lost)} of "
                f"{len(work)} item(s); the crashing scenario is one of: {named}",
                candidates=candidates,
            ) from exc
    finally:
        # Reached on early consumer exit (abandoned streaming iterator),
        # KeyboardInterrupt, or a worker crash: drop whatever has not started.
        for future in futures:
            future.cancel()


class Executor(Protocol):
    """The executor interface the Engine dispatches through."""

    jobs: int

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """Apply ``fn`` to every item, returning results in input order."""
        ...

    def imap(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> Iterator[Any]:
        """Like ``map``, but lazily: yield results in input order as they land."""
        ...

    def close(self) -> None:
        """Release whatever the executor holds between calls (idempotent)."""
        ...


class SerialExecutor:
    """Run every item in-process, one after another (the default)."""

    jobs = 1

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        return [fn(item) for item in items]

    def imap(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> Iterator[Any]:
        """Lazy serial iteration: each result is computed as it is consumed."""
        for item in items:
            yield fn(item)

    def close(self) -> None:
        """Nothing to release; present so every executor is closable."""

    def __repr__(self) -> str:
        return "SerialExecutor()"


class WorkerPool:
    """The *warm* pool: one persistent process pool across every call.

    The pool is spawned lazily on the first call that actually needs it, each
    worker runs :func:`_warm_worker` exactly once (interpreter startup plus
    the library import happen per worker lifetime, not per call), and the
    same workers then serve every subsequent ``map``/``imap`` until
    :meth:`close`.  An :class:`~repro.runtime.engine.Engine` built with
    ``jobs=N`` owns one of these, so successive ``run`` / ``run_many`` /
    ``run_sweep`` calls — a whole experiment session — share the warm pool.

    Lifecycle: use as a context manager or call :meth:`close` (idempotent);
    a call after ``close`` lazily spawns a fresh pool.  If a worker dies the
    resulting :class:`~repro.errors.WorkerCrashError` names the in-flight
    scenarios and the broken pool is discarded, so the next call starts from
    a clean (re-spawned) pool instead of failing forever.

    Dispatch is chunked — one task carries a list of items — and results
    always come back in input order.
    """

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
        self.jobs = jobs or (os.cpu_count() or 1)
        self._pool: ProcessPoolExecutor | None = None
        #: One line per pool crash over this executor's lifetime ("attempt N:
        #: cause"); folded into every WorkerCrashError so repeated respawn-
        #: and-crash cycles are diagnosable from the last log line alone.
        self.crash_history: list[str] = []

    # -- lifecycle -----------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the pool processes are currently spawned."""
        return self._pool is not None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context(_START_METHOD),
                initializer=_warm_worker,
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent; a later call re-spawns lazily)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        # Engines are often created without an explicit with-block; make sure
        # an abandoned pool's workers do not outlive the owning object.
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch ------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        return list(self.imap(fn, items))

    def imap(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> Iterator[Any]:
        """Yield results in input order as dispatch chunks complete."""
        work: Sequence[Any] = list(items)
        if len(work) < 2 or self.jobs == 1:
            # Too little work to be worth shipping out — but if the pool is
            # already warm it is cheaper than computing in the (busy) parent.
            if self._pool is None:
                for item in work:
                    yield fn(item)
                return
        pool = self._ensure_pool()
        try:
            yield from _dispatch_chunks(pool, fn, work, self._chunksize(len(work)))
        except WorkerCrashError as exc:
            # The pool is broken beyond this call; discard it so the next
            # call re-spawns instead of re-raising BrokenProcessPool forever.
            broken, self._pool = self._pool, None
            if broken is not None:
                broken.shutdown(wait=False, cancel_futures=True)
            # Fold this pool generation's crash into the lifetime history and
            # re-raise carrying it, so the caller's log shows every respawn-
            # and-crash cycle, not just the last one.
            sample = exc.candidates[0] if exc.candidates else "unknown item"
            self.crash_history.append(
                f"attempt {len(self.crash_history) + 1}: pool died on one of "
                f"{len(exc.candidates)} in-flight item(s) (e.g. {sample})"
            )
            raise WorkerCrashError(
                str(exc),
                candidates=exc.candidates,
                history=self.crash_history,
            ) from exc

    def _chunksize(self, total: int) -> int:
        return max(1, total // (self.jobs * CHUNKS_PER_WORKER))

    def __repr__(self) -> str:
        state = "warm" if self.alive else "idle"
        return f"WorkerPool(jobs={self.jobs}, {state})"


def executor_for(jobs: int | None) -> Executor:
    """Pick an executor: ``jobs`` ≤ 1 (or ``None``) → serial; else a :class:`WorkerPool`."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return WorkerPool(jobs)
