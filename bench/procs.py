"""Leave no process behind: adopt every descendant, wait for each on the way out.

A ``spawn`` pool starts a ``multiprocessing.resource_tracker`` helper that
only exits once its owner has gone, i.e. *after* the benchmark: the box's
init does not reap it, so it stays behind as a process of the run.  The
command-line entry point therefore runs ``main`` under :func:`supervised`:
this process becomes the reaper of every orphaned descendant (set-up probes'
helpers, fabric workers, pool workers), the tracker is stopped explicitly,
and the process exits only when it has no child left — whichever way ``main``
ended.  Library users (the tests call ``harness.run_workload`` in-process) are
not touched: a test runner's children are its own.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from typing import Callable

__all__ = ["supervised"]

_PR_SET_CHILD_SUBREAPER = 36
#: How long descendants get to end by themselves before they are killed.
GRACE_S = 10.0


def _adopt_orphans() -> None:
    """Orphaned descendants are re-parented to this process, not to init (Linux)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still waited for below


def _children() -> list[int]:
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                    # pid (comm) state ppid ...; comm may hold spaces and brackets
                    if handle.read().rpartition(")")[2].split()[1] == me:
                        found.append(int(entry))
            except (OSError, IndexError):
                pass  # gone between listdir and open
    return found


def _stop_descendants() -> None:
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()  # closes the helper's keep-alive pipe and waits for it
    deadline = time.monotonic() + GRACE_S
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def supervised(main: Callable[[], int]) -> int:
    """Run ``main``; return only once every process it started has ended."""
    _adopt_orphans()
    # A polite kill unwinds through the ``finally`` below like any other exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return main()
    finally:
        sys.stdout.flush()
        _stop_descendants()
