"""Pluggable executors: how the Engine maps work over configurations.

Two implementations cover the execution spectrum:

* :class:`SerialExecutor` — everything in-process, one item after another;
* :class:`WorkerPool` — a persistent, lazily spawned fleet of warm worker
  processes, reused across every ``map``/``imap`` call until ``close()``.

An executor provides ``map(fn, items) -> list`` returning results *in input
order*, which is what keeps serial and parallel runs row-for-row identical
(every item carries its own seed; nothing depends on completion order);
``imap``, the lazy input-order iterator that yields results as they become
contiguous (the primitive behind ``Engine.run_sweep(..., stream=True)``);
and an idempotent ``close()``.

Work is dispatched to the pool in *chunks*: one message carries a list of
items, so a thousand-run sweep costs tens of round-trips instead of a
thousand.  Each call is cut into ``jobs × CHUNKS_PER_WORKER`` chunks — few
enough to amortise transport, enough for load balance.  The processes
themselves — start method, warm-up, pipes, death detection — belong to
:mod:`repro.runtime.fleet`; the pool is only the in-memory policy on top of
it: buffer what arrives, yield it in input order, raise on a lost worker.
``fn``, the items and the results must be picklable (module-level functions
and plain-data configs/specs are; closures are not — keep per-run lambdas
inside the worker function).
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import closing
from typing import Any, Callable, Iterable, Iterator, Protocol

from ..errors import ConfigurationError, WorkerCrashError
from .fleet import Fleet

__all__ = [
    "Executor",
    "SerialExecutor",
    "WorkerPool",
    "executor_for",
    "describe_item",
]

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
    """The *warm* pool: one persistent worker fleet across every call.

    The workers are spawned lazily on the first call that actually needs
    them, each warms up exactly once (interpreter startup plus the library
    import happen per worker lifetime, not per call), and the same workers
    then serve every subsequent ``map``/``imap`` until :meth:`close`.  An
    :class:`~repro.runtime.engine.Engine` built with ``jobs=N`` owns one of
    these, so successive ``run`` / ``run_many`` / ``run_sweep`` calls — a
    whole experiment session — share the warm pool.

    Lifecycle: use as a context manager or call :meth:`close` (idempotent);
    a call after ``close`` lazily spawns fresh workers.  If a worker dies
    while it holds work, the resulting :class:`~repro.errors.WorkerCrashError`
    names that worker's unfinished scenarios and the fleet is discarded, so
    the next call starts from clean (re-spawned) workers.  A worker found dead
    while idle lost nothing: the fleet replaces it and the call succeeds.

    Dispatch is chunked — one message carries a list of items — and results
    always come back in input order.
    """

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
        self.jobs = jobs or (os.cpu_count() or 1)
        self.fleet = Fleet(self.jobs)
        #: One line per pool crash over this executor's lifetime ("attempt N:
        #: cause"); folded into every WorkerCrashError so repeated respawn-
        #: and-crash cycles are diagnosable from the last log line alone.
        self.crash_history: list[str] = []

    # -- lifecycle -----------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the pool processes are currently spawned."""
        return bool(self.fleet.pids())

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (empty until the first real call)."""
        return list(self.fleet.pids().values())

    def close(self) -> None:
        """Shut the workers down (idempotent; a later call re-spawns lazily)."""
        self.fleet.close()

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
        """Yield results in input order as they become contiguous."""
        work = list(items)
        if (len(work) < 2 or self.jobs == 1) and not self.alive:
            # Too little work to be worth shipping out — but if the pool is
            # already warm it is cheaper than computing in the (busy) parent.
            for item in work:
                yield fn(item)
            return
        size = max(1, len(work) // (self.jobs * CHUNKS_PER_WORKER))
        # A chunk is tagged with the input index its next result belongs to.
        cursor = {start: start for start in range(0, len(work), size)}
        todo = deque((start, work[start : start + size]) for start in cursor)
        arrived: dict[int, Any] = {}
        failed: dict[int, BaseException] = {}
        upcoming = 0
        with closing(self.fleet.run(fn, todo)) as events:
            for event in events:
                if event.tag is None:
                    continue  # an idle worker died: nothing lost, the fleet replaces it
                if event.death is not None:
                    self._crashed(event.death, event.unfinished, len(work))
                for result in event.results:
                    arrived[cursor[event.tag]] = result
                    cursor[event.tag] += 1
                if event.error is not None:
                    failed[cursor[event.tag]] = event.error
                # Everything before the first gap is final: hand it over, and
                # raise a failure exactly where a serial run would have.
                while upcoming in arrived:
                    yield arrived.pop(upcoming)
                    upcoming += 1
                if upcoming in failed:
                    raise failed[upcoming]

    def _crashed(self, cause: str, lost: list, total: int) -> None:
        """Discard the fleet and raise, carrying this pool's crash history."""
        # The next call re-spawns from scratch instead of trusting survivors
        # of whatever killed their sibling.
        self.close()
        candidates = [describe_item(item) for item in lost]
        named = ", ".join(candidates[:_MAX_NAMED_CANDIDATES])
        if len(candidates) > _MAX_NAMED_CANDIDATES:
            named += f", ... ({len(candidates) - _MAX_NAMED_CANDIDATES} more)"
        sample = candidates[0] if candidates else "unknown item"
        self.crash_history.append(
            f"attempt {len(self.crash_history) + 1}: {cause} on one of "
            f"{len(candidates)} in-flight item(s) (e.g. {sample})"
        )
        raise WorkerCrashError(
            f"a worker process died while executing {len(lost)} of "
            f"{total} item(s); the crashing scenario is one of: {named}",
            candidates=candidates,
            history=self.crash_history,
        )

    def __repr__(self) -> str:
        state = "warm" if self.alive else "idle"
        return f"WorkerPool(jobs={self.jobs}, {state})"


def executor_for(jobs: int | None) -> Executor:
    """Pick an executor: ``jobs`` ≤ 1 (or ``None``) → serial; else a :class:`WorkerPool`."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return WorkerPool(jobs)
