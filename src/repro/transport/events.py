"""JSONL event logs on a shared monotonic time base.

Every node process (and the orchestrator's fault injector) appends one JSON
object per line to its own log file.  Timestamps come from
``time.monotonic()`` — on Linux a *system-wide* clock, so events written by
different processes on the same host are directly comparable — and are
reported relative to the run's ``epoch`` (the orchestrator's monotonic
reading at spawn time, passed to every node), which keeps the numbers small
and makes ``t_detect − t_fail`` a plain subtraction (Snippet 1 §5: same time
base for both sides).

Each line carries two clocks:

* ``t_wall`` — epoch-relative wall seconds (the shared base);
* ``t`` — scenario time units (``(t_wall − t0) / time_scale``), aligned with
  the simulator's clock so latencies compare 1:1 across backends; ``null``
  on lines written before the run's ``t0`` is known (mesh-up, ``node_ready``).

Lines are flushed eagerly (write + flush per event): a node that is
SIGKILLed mid-run must not take its buffered history with it (§10's
log-flush edge case — and precisely the event we are here to measure).

:func:`load_trace` is the one reader that judges a run: it folds every node
log and the injector log of a log directory into the simulator's
:class:`~repro.sim.trace.RunTrace`, so a real run goes through the same
registered checks (``fold_checks``) as a simulated one.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Iterator

from ..identity import IdentityMultiset
from ..membership import Membership
from ..sim.trace import RunTrace

__all__ = ["EventLog", "read_events", "load_trace"]

_MULTISET_TAG = "__multiset__"


def _encode(value: Any) -> Any:
    """JSON fallback: identity multisets travel tagged, anything else as text."""
    if isinstance(value, IdentityMultiset):
        return {_MULTISET_TAG: list(value)}
    return str(value)


def _decode(obj: dict) -> Any:
    if obj.keys() == {_MULTISET_TAG}:
        return IdentityMultiset(obj[_MULTISET_TAG])
    return obj


class EventLog:
    """An append-only JSONL event log for one process of one run."""

    def __init__(
        self,
        path: str | Path,
        *,
        epoch: float,
        t0: float | None = None,
        time_scale: float = 1.0,
        node: Any = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.path = Path(path)
        self.epoch = epoch
        self.t0 = t0
        self.time_scale = time_scale
        self.node = node
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def now_wall(self) -> float:
        """Epoch-relative wall seconds (the shared monotonic base)."""
        return time.monotonic() - self.epoch

    def to_units(self, t_wall: float) -> float | None:
        """Scenario time units of an epoch-relative wall timestamp.

        ``None`` until ``t0`` is set: before the common origin is known a
        wall reading has no scenario time.
        """
        if self.t0 is None:
            return None
        return round((t_wall - self.t0) / self.time_scale, 6)

    def log(self, event: str, *, t_wall: float | None = None, **fields: Any) -> dict:
        """Append one event line (flushed immediately) and return it."""
        t_wall = self.now_wall() if t_wall is None else t_wall
        entry: dict[str, Any] = {
            "event": event,
            "t_wall": round(t_wall, 6),
            "t": self.to_units(t_wall),
        }
        if self.node is not None:
            entry["node"] = self.node
        entry.update(fields)
        self._handle.write(json.dumps(entry, sort_keys=True, default=_encode) + "\n")
        self._handle.flush()
        return entry

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_events(path: str | Path) -> Iterator[dict]:
    """Yield every event of a JSONL log, skipping a torn final line.

    A node killed by the fault injector may die between ``write`` and
    ``flush``; everything before the torn tail is still valid evidence.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line, object_hook=_decode)
            except json.JSONDecodeError:
                return


def load_trace(log_dir: str | Path, membership: Membership) -> RunTrace:
    """Fold a real run's log directory into the simulator's trace type.

    ``node<i>.jsonl`` is process ``i``'s history: ``<key> value=…`` lines are
    its ``ctx.record`` snapshots, ``decide`` its decision, ``msg_send`` /
    ``msg_recv`` the message accounting.  ``injector.jsonl`` holds the crash
    ledger — ``fault_injected`` at the *measured* ``t_fail`` — and the run's
    end.  Lines without a scenario time (written before ``t0``) are skipped.
    """
    log_dir = Path(log_dir)
    trace = RunTrace()
    for process in membership.processes:
        for entry in read_events(log_dir / f"node{process.index}.jsonl"):
            event, t = entry["event"], entry.get("t")
            if t is None:
                continue
            if event == "msg_send":
                trace.record_broadcast(entry["kind"], entry["copies"])
            elif event == "msg_recv":
                trace.record_delivery(entry["kind"])
            elif event == "decide":
                trace.record_decision(process, entry["value"], t)
            elif "value" in entry:
                trace.record(process, event, entry["value"], t)
    for entry in read_events(log_dir / "injector.jsonl"):
        if entry["event"] == "fault_injected":
            trace.record_crash(membership.processes[entry["victim"]], entry["t"])
        elif entry["event"] == "run_end":
            trace.mark_end(entry["t"])
    return trace
