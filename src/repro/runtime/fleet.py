"""One supervised fleet of worker processes: spawn, feed, drain, kill, reap.

This is the only module that owns sweep worker processes.  A :class:`Fleet`
keeps up to ``size`` ``spawn``-context :mod:`multiprocessing` workers, each on
its own :func:`~multiprocessing.Pipe`.  A worker warms up once (imports the
library, says hello) and then executes *chunks* — ``(fn, items)`` — sending
the item results back in order, coalesced: whatever it has at the end of the
chunk, and earlier whenever :data:`FLUSH_INTERVAL` has passed since its last
send.  Long items therefore stream one by one, millisecond items travel in
small batches (the parent is not woken once per item while it competes with
its own workers for the cores), and a SIGKILLed worker loses at most that
interval of deterministic, re-executable work.

The parent side is one single-threaded loop, :meth:`Fleet.run`, blocked in
:func:`multiprocessing.connection.wait` on every pipe and process sentinel.  It
hands queued chunks to idle workers, turns worker messages into
:class:`Event`\\ s, notices death (sentinel or EOF), kills a worker that stays
silent past ``progress_timeout`` while it is on the hook (holding a chunk, or
not yet greeted — a SIGSTOP between fork and hello must not pin a slot), and
replaces dead workers through the :data:`RESPAWN_RETRY` backoff.  What an
event *means* — buffer and re-order, journal, requeue, bisect, raise — is the
caller's policy (:class:`~repro.runtime.executors.WorkerPool`,
:class:`~repro.fabric.coordinator.Coordinator`).

Workers use the ``spawn`` start method: they always execute the clean import
path instead of inheriting an arbitrary fork of the parent heap (monkeypatched
classes, mutated module globals, warmed RNGs), which keeps the determinism
digest guarantee — identical digests serial vs. parallel — independent of
parent-process state.  ``spawn`` also ships ``sys.path`` to the child, and a
``Pipe`` carries pickles, not a byte stream a stray ``print`` could corrupt.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.pool import ExceptionWithTraceback
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Iterator, Sequence

from ..retry import RetryPolicy

__all__ = ["Event", "Fleet", "FLUSH_INTERVAL", "RESPAWN_RETRY"]

#: Longest a worker sits on finished results before sending them (seconds).
FLUSH_INTERVAL = 0.05

#: The loop wakes at least this often even when no worker says anything —
#: that is what keeps stall detection and deferred respawns running when the
#: whole fleet has gone silent (all SIGSTOP'd).
TICK = 0.25

#: How long ``close()`` waits for an idle worker to exit before killing it.
JOIN_GRACE = 5.0

#: Backoff between a worker death and its replacement's spawn.  Healthy runs
#: never consecutive-die, so the first respawn is near-instant; a
#: crash-looping fleet (bad interpreter, OOM killer) backs off toward the cap
#: instead of fork-bombing the host.  The schedule restarts whenever a result
#: arrives (= the fleet is making progress again).
RESPAWN_RETRY = RetryPolicy(base=0.05, cap=2.0, max_attempts=1_000_000)

_HELLO, _MORE, _DONE = "hello", "more", "done"


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _run_chunk(conn: Connection, fn: Callable[[Any], Any], items: Sequence[Any]) -> None:
    batch: list = []
    sent = time.monotonic()
    try:
        for item in items:
            batch.append(fn(item))
            if time.monotonic() - sent >= FLUSH_INTERVAL:
                conn.send((batch, _MORE))
                batch, sent = [], time.monotonic()
        conn.send((batch, _DONE))
    except Exception as error:  # noqa: BLE001 — reported to the parent
        # ``fn`` raised, or a result would not pickle (``send`` pickles before
        # it writes, so the pipe is still clean).  The unsent batch is dropped:
        # the parent sees the failure at the first item it has no result for.
        conn.send(([], ExceptionWithTraceback(error, error.__traceback__)))


def _serve(conn: Connection) -> None:
    """Worker body: warm up once, then execute chunks until told to stop."""
    # Importing the experiments pulls in the simulation stack and registers
    # every detector/consensus/experiment entry the specs resolve, so each
    # worker pays interpreter start-up and import once; afterwards a chunk
    # only unpickles its inputs.
    import repro.experiments  # noqa: F401

    try:
        conn.send(([], _HELLO))
        while (task := conn.recv()) is not None:
            _run_chunk(conn, *task)
    except (EOFError, OSError):
        pass  # the parent went away; there is nobody left to report to


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass
class Event:
    """What one worker just did to the chunk tagged ``tag``.

    ``results`` are the chunk's next item results, in item order.  Exactly one
    of three things then holds: the chunk goes on (nothing set), it finished
    (``done``), or it was abandoned — ``fn`` raised (``error``, the worker
    lives on) or the worker died (``death``, its cause; ``tag`` is ``None``
    if it held no chunk) — leaving ``unfinished`` items without a result.
    """

    worker: int
    tag: Any
    results: list
    done: bool = False
    error: BaseException | None = None
    death: str | None = None
    unfinished: Sequence[Any] = ()


@dataclass(eq=False)
class _Worker:
    number: int
    process: BaseProcess
    conn: Connection
    last_progress: float
    greeted: bool = False
    chunk: tuple[Any, Sequence[Any]] | None = None  # (tag, items still unanswered)
    fail_cause: str | None = None  # set before a deliberate kill

    @property
    def on_the_hook(self) -> bool:
        return self.chunk is not None or not self.greeted


class Fleet:
    """Up to ``size`` warm worker processes and the loop that supervises them."""

    def __init__(self, size: int, *, progress_timeout: float | None = None) -> None:
        self.size = size
        self.progress_timeout = progress_timeout
        #: Workers killed by the progress deadline over this fleet's lifetime.
        self.stalls = 0
        self._workers: dict[int, _Worker] = {}
        self._spawned = 0
        self._delays = RESPAWN_RETRY.delays()
        self._respawn_at: list[float] = []  # monotonic deadlines

    # -- inspection and signals ----------------------------------------
    def pids(self, *, busy: bool = False) -> dict[int, int]:
        """Live workers, number → pid, oldest first (``busy``: only those holding a chunk)."""
        return {
            number: worker.process.pid
            for number, worker in self._workers.items()
            if worker.chunk is not None or not busy
        }

    def signal(self, number: int, signum: int) -> None:
        """Send ``signum`` to worker ``number``: SIGKILL and SIGSTOP rehearse a
        death and a stall, which :meth:`run` then reports like real ones."""
        os.kill(self.pids()[number], signum)  # not yet reaped, so the pid is still its own

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> None:
        context = multiprocessing.get_context("spawn")
        ours, theirs = context.Pipe()
        process = context.Process(target=_serve, args=(theirs,), daemon=True)
        process.start()
        theirs.close()  # the child holds the only copy: its death is our EOF
        self._workers[self._spawned] = _Worker(
            self._spawned, process, ours, last_progress=time.monotonic()
        )
        self._spawned += 1

    def _reap(self, worker: _Worker) -> int | None:
        """Make sure ``worker`` is dead and waited for; return its exit code."""
        self._workers.pop(worker.number, None)
        worker.process.kill()
        worker.process.join()
        code = worker.process.exitcode
        worker.conn.close()
        worker.process.close()
        return code

    def close(self) -> None:
        """Stop and join every worker (idempotent; :meth:`run` respawns)."""
        workers = list(self._workers.values())
        self._respawn_at.clear()
        for worker in workers:
            if worker.on_the_hook:
                worker.process.kill()  # still importing: it holds nothing
            else:
                try:
                    worker.conn.send(None)  # it is waiting in recv(): exit politely
                except OSError:
                    pass
        for worker in workers:
            # An idle worker that was SIGSTOP'd never reads the goodbye.
            worker.process.join(JOIN_GRACE)
            self._reap(worker)

    # -- the loop ------------------------------------------------------
    def run(
        self, fn: Callable[[Any], Any], todo: "deque[tuple[Any, Sequence[Any]]]"
    ) -> Iterator[Event]:
        """Execute the ``(tag, items)`` chunks of ``todo``; yield what happens.

        Runs until ``todo`` is empty and no worker holds a chunk.  The caller
        may append to ``todo`` between events (requeue, bisect).  Leaving the
        iterator early — an exception in the caller, ``close()`` — kills the
        workers that still hold a chunk; idle ones stay warm for the next run.
        """
        tick = min(TICK, max(0.05, (self.progress_timeout or float("inf")) / 4))
        self._respawn_at.clear()
        try:
            for _ in range(self._wanted(todo) - len(self._workers)):
                self._spawn()
            while todo or self.pids(busy=True):
                now = time.monotonic()
                waitables: dict[Any, _Worker] = {}
                for worker in self._workers.values():
                    if todo and worker.greeted and worker.chunk is None:
                        try:
                            worker.conn.send((fn, todo[0][1]))
                        except OSError:
                            pass  # died while idle: the chunk stays queued
                        else:
                            worker.chunk, worker.last_progress = todo.popleft(), now
                    elif worker.on_the_hook and worker.fail_cause is None:
                        self._kill_if_stalled(worker, now)
                    waitables[worker.conn] = waitables[worker.process.sentinel] = worker
                timeout = min([tick] + [due - now for due in self._respawn_at])
                ready = wait(list(waitables), timeout=max(0.0, timeout))
                for worker in {waitables[r].number: waitables[r] for r in ready}.values():
                    yield from self._pump(worker)
                self._respawn(self._wanted(todo))
        finally:
            for worker in list(self._workers.values()):
                if worker.chunk is not None:
                    self._reap(worker)

    def _wanted(self, todo: deque) -> int:
        return min(self.size, len(todo) + len(self.pids(busy=True)))

    def _pump(self, worker: _Worker) -> Iterator[Event]:
        """Turn everything ``worker`` has sent (and its death) into events."""
        try:
            while worker.conn.poll():
                results, status = worker.conn.recv()
                worker.last_progress = time.monotonic()
                if status == _HELLO:
                    worker.greeted = True
                    continue
                if results:
                    self._delays = RESPAWN_RETRY.delays()  # healthy again
                tag, items = worker.chunk
                left = items[len(results) :]
                worker.chunk = (tag, left) if status == _MORE else None
                if status in (_MORE, _DONE):
                    yield Event(worker.number, tag, results, done=status == _DONE)
                else:  # the exception ``fn`` raised
                    yield Event(worker.number, tag, results, error=status, unfinished=left)
            if worker.process.is_alive():
                return
        except (EOFError, OSError):
            pass  # the pipe closed: the worker is dead (or dying)
        code = self._reap(worker)
        tag, unfinished = worker.chunk or (None, ())
        yield Event(
            worker.number,
            tag,
            [],
            death=worker.fail_cause or f"worker exited (exit code {code})",
            unfinished=unfinished,
        )

    def _kill_if_stalled(self, worker: _Worker, now: float) -> None:
        if now - worker.last_progress > (self.progress_timeout or float("inf")):
            self.stalls += 1
            what = "its chunk" if worker.greeted else "its greeting"
            worker.fail_cause = (
                f"stalled: no progress on {what} for "
                f"{self.progress_timeout:g}s (suspended or hung); killed"
            )
            worker.process.kill()  # wait() then reports the death

    def _respawn(self, wanted: int) -> None:
        """Schedule a backed-off spawn per missing worker; start the due ones."""
        now = time.monotonic()
        while len(self._workers) + len(self._respawn_at) < wanted:
            self._respawn_at.append(now + next(self._delays, RESPAWN_RETRY.cap))
        for due in [due for due in self._respawn_at if due <= now]:
            self._respawn_at.remove(due)
            if len(self._workers) < wanted:
                self._spawn()
