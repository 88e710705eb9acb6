"""The asyncio runtime behind the program/context protocol.

:class:`RealNodeRuntime` *is* a :class:`repro.sim.process.ProcessRuntime`:
programs see it through the same :class:`~repro.context.ProcessContext`, and
its tasks run on the simulator's one trampoline — the same handler table,
detector views, spawn check and ``WaitUntil`` scan after every delivery.  It
overrides only what a node does differently:

* the clock is :class:`_ScaledClock`, the shared monotonic clock (epoch- and
  t0-aligned, divided by ``time_scale``), so ``ctx.now`` reads scenario time
  units on both backends;
* a task resumption due at scenario time ``at`` is a ``loop.call_later`` of
  ``(at − now) × time_scale`` wall seconds, so ``Sleep(d)`` waits ``d ×
  time_scale`` seconds; ``NextSyncStep`` is rejected, since real networks have
  no synchronous rounds (the spec's requirement table already refuses HSS
  specs on this backend);
* sends write frames to the peers and self-deliver on the loop's next
  iteration; a delivery before ``start`` waits in a backlog.

Everything observable — sends, deliveries, ``ctx.record``, ``ctx.decide`` —
goes to the node's JSONL :class:`~repro.events.EventLog`, which
:func:`~repro.transport.orchestrator.load_trace` folds back into the
simulator's :class:`RunTrace` when the run is judged.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Collection

from ..errors import SimulationError
from ..events import EventLog
from ..identity import Identity, ProcessId
from ..sim.message import Message
from ..sim.process import ProcessRuntime
from ..sim.timing import TimingModel
from ..sim.trace import RunTrace
from .framing import encode_frame

__all__ = ["RealNodeRuntime", "TransportError"]


class TransportError(SimulationError):
    """A program used a construct the real backend cannot provide."""


class _ScaledClock:
    """``now``: scenario time units since t0, off the shared monotonic clock."""

    __slots__ = ("_log", "_time_scale")

    def __init__(self, log: EventLog, time_scale: float) -> None:
        self._log = log
        self._time_scale = time_scale

    @property
    def now(self) -> float:
        log = self._log
        return (time.monotonic() - log.epoch - log.t0) / self._time_scale


class RealNodeRuntime(ProcessRuntime):
    """Executes one node's program over asyncio: sockets and log around the trampoline."""

    def __init__(
        self,
        *,
        index: int,
        identity: Identity,
        log: EventLog,
        time_scale: float,
        seed: int = 0,
    ) -> None:
        super().__init__(
            ProcessId(index),
            identity,
            None,
            clock=_ScaledClock(log, time_scale),
            queue=None,
            timing=TimingModel(),
            trace=RunTrace(),
            rng_streams=None,
            broadcast_fn=None,
            multicast_fn=None,
        )
        self.index = index
        self.log = log
        self.time_scale = time_scale
        self.rng = random.Random(f"transport:{seed}:{index}")
        self._peer_writers: dict[int, asyncio.StreamWriter] = {}
        self._pre_start: list[Message] = []

    def add_peer(self, index: int, writer: asyncio.StreamWriter) -> None:
        self._peer_writers[index] = writer

    # -- lifecycle --------------------------------------------------------
    def start(self, program) -> None:
        """Run ``setup`` and release any messages that arrived early.

        Peers start at (roughly) the same t0 but not in lockstep; a frame can
        land before this node's handlers exist.  Those deliveries are queued,
        not dropped — the simulator never loses an in-order delivery either.
        """
        self.program = program
        super().start()
        backlog, self._pre_start = self._pre_start, []
        for message in backlog:
            self.deliver(message)

    def fail(self, loop: asyncio.AbstractEventLoop, context: dict) -> None:
        """The node loop's exception handler: an error a task or a handler
        raised is a ``task_error`` line in the log, where :func:`load_trace`
        reads it, and the program stops."""
        error = context.get("exception")
        self.log.log("task_error", value=context["message"] if error is None else repr(error))
        self.stop()

    def stop(self) -> None:
        """Cancel every pending resumption and stop delivering (the node is shutting down)."""
        self._crashed = True
        for task in self._tasks:
            if task.pending_event is not None:
                task.pending_event.cancel()
        self._tasks.clear()

    # -- communication ----------------------------------------------------
    def broadcast(self, message: Message) -> None:
        self._send(message, self._peer_writers.keys(), to_self=True)

    def multicast(self, message: Message, targets: Any) -> None:
        """Write the frame only to the peers whose index is targeted.

        Self-delivery happens only when this node's own index is in the
        target set (matching :meth:`Network.multicast` on the simulator).
        """
        wanted = set(targets)
        self._send(message, wanted & self._peer_writers.keys(), to_self=self.index in wanted)

    def _send(self, message: Message, receivers: Collection[int], *, to_self: bool) -> None:
        if self._crashed:
            return
        # copies: one per link, crashed receivers included — the sim's count
        self.log.log("msg_send", kind=message.kind, copies=len(receivers) + to_self)
        frame = encode_frame(
            {"kind": message.kind, "payload": dict(message.payload), "sender": self.index}
        )
        for index in receivers:
            writer = self._peer_writers[index]
            if not writer.is_closing():
                writer.write(frame)
        if to_self:
            # On a fresh loop iteration, so handlers never run re-entrantly.
            asyncio.get_running_loop().call_soon(self.deliver, message)

    def deliver(self, message: Message) -> None:
        if self._crashed:
            return
        if not self._started:
            self._pre_start.append(message)
            return
        self.log.log("msg_recv", kind=message.kind)
        super().deliver(message)

    def deliver_wire(self, frame: Any) -> None:
        """Deliver one decoded wire frame (from a peer connection)."""
        self.deliver(Message(frame["kind"], frame.get("payload", {})))

    # -- trace output ------------------------------------------------------
    def record(self, key: str, value: Any) -> None:
        if not self._crashed:
            self.log.log(key, value=value)

    def record_decision(self, value: Any) -> None:
        if not self._crashed:
            self.log.log("decide", value=value)

    # -- resumptions on the event loop -----------------------------------
    def _schedule_resumption(self, task, *, at: float) -> None:
        delay = max(0.0, (at - self.clock.now) * self.time_scale)
        task.pending_event = asyncio.get_running_loop().call_later(delay, self._resume, task)

    def _schedule_sync_step_resumption(self, task) -> None:
        raise TransportError(
            "next_synchronous_step() has no meaning on the real backend; "
            "synchronous (HSS) programs are sim-only"
        )
