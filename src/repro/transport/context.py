"""The asyncio runtime behind the program/context protocol.

:class:`RealNodeRuntime` is the transport twin of
:class:`repro.sim.process.ProcessRuntime`: programs see it through the same
:class:`~repro.context.ProcessContext`, and it drives the same generator tasks
through a trampoline, but blocking requests map onto the event loop instead
of the event queue —

* ``Sleep(d)`` → ``await asyncio.sleep(d × time_scale)`` (scenario time units
  scale to wall seconds, so the same program parameters mean the same thing
  on both backends);
* ``WaitUntil(pred)`` → an awaited future resolved by :meth:`poke`, which
  runs after every message delivery (same re-check points as the simulator);
* ``NextSyncStep`` → rejected: real networks have no synchronous rounds, and
  the scenario builder already refuses HSS specs on this backend.

``ctx.now`` reads ``clock.now``, the shared monotonic clock (epoch- and
t0-aligned, divided by ``time_scale``), so programs observe scenario time
units everywhere.
Everything observable — sends, deliveries, ``ctx.record``, ``ctx.decide`` —
goes to the node's JSONL :class:`~repro.events.EventLog`, which
:func:`~repro.transport.orchestrator.load_trace` folds back into the
simulator's :class:`RunTrace` when the run is judged.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Callable, Generator, Iterable

from ..context import NextSyncStep, ProcessContext, Sleep, WaitUntil
from ..errors import SimulationError
from ..events import EventLog
from ..identity import Identity
from ..sim.message import Message
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


class RealNodeRuntime:
    """Executes one node's program over asyncio: trampoline, sockets, log."""

    def __init__(
        self,
        *,
        index: int,
        identity: Identity,
        log: EventLog,
        time_scale: float,
        seed: int = 0,
    ) -> None:
        self.index = index
        self.identity = identity
        self.log = log
        self.time_scale = time_scale
        self.clock = _ScaledClock(log, time_scale)
        self.rng = random.Random(f"transport:{seed}:{index}")
        self.context = ProcessContext(self)
        self._handlers: dict[str, list[Callable[[Message], None]]] = {}
        self._detector_views: dict[str, Any] = {}
        self._peer_writers: dict[int, asyncio.StreamWriter] = {}
        self._tasks: list[asyncio.Task] = []
        self._waiters: list[asyncio.Future] = []
        self._pre_start: list[Message] = []
        self._started = False
        self._stopped = False

    # -- wiring ----------------------------------------------------------
    def add_peer(self, index: int, writer: asyncio.StreamWriter) -> None:
        self._peer_writers[index] = writer

    def attach_detector_view(self, name: str, view: Any) -> None:
        self._detector_views[name] = view

    def detector_view(self, name: str) -> Any:
        try:
            return self._detector_views[name]
        except KeyError:
            raise TransportError(f"node {self.index} has no detector named {name!r}") from None

    def has_detector(self, name: str) -> bool:
        return name in self._detector_views

    # -- lifecycle --------------------------------------------------------
    def start(self, program) -> None:
        """Run ``setup`` and release any messages that arrived early.

        Peers start at (roughly) the same t0 but not in lockstep; a frame can
        land before this node's handlers exist.  Those deliveries are queued,
        not dropped — the simulator never loses an in-order delivery either.
        """
        if self._started:
            raise TransportError(f"node {self.index} started twice")
        self._started = True
        program.setup(self.context)
        backlog, self._pre_start = self._pre_start, []
        for message in backlog:
            self.deliver(message)

    def stop(self) -> None:
        """Cancel every task and stop delivering (the node is shutting down)."""
        self._stopped = True
        for task in self._tasks:
            task.cancel()
        for waiter in self._waiters:
            if not waiter.done():
                waiter.cancel()
        self._waiters.clear()

    # -- communication ----------------------------------------------------
    def broadcast(self, message: Message) -> None:
        if self._stopped:
            return
        # copies: one per link, crashed receivers included — the sim's count
        self.log.log("msg_send", kind=message.kind, copies=len(self._peer_writers) + 1)
        frame = encode_frame(
            {"kind": message.kind, "payload": dict(message.payload), "sender": self.index}
        )
        for writer in self._peer_writers.values():
            if not writer.is_closing():
                writer.write(frame)
        # Self-delivery (the simulator's broadcast includes the sender), on a
        # fresh loop iteration so handlers never run re-entrantly.
        asyncio.get_running_loop().call_soon(self.deliver, message)

    def multicast(self, message: Message, targets: Any) -> None:
        """Write the frame only to the peers whose index is targeted.

        Self-delivery happens only when this node's own index is in the
        target set (matching :meth:`Network.multicast` on the simulator).
        """
        if self._stopped:
            return
        wanted = set(targets)
        copies = len(wanted & (self._peer_writers.keys() | {self.index}))
        self.log.log("msg_send", kind=message.kind, copies=copies)
        frame = encode_frame(
            {"kind": message.kind, "payload": dict(message.payload), "sender": self.index}
        )
        for index, writer in self._peer_writers.items():
            if index in wanted and not writer.is_closing():
                writer.write(frame)
        if self.index in wanted:
            asyncio.get_running_loop().call_soon(self.deliver, message)

    def register_handler(self, kind: str, handler: Callable[[Message], None]) -> None:
        self._handlers.setdefault(kind, []).append(handler)

    def remove_handlers(self, kinds: Iterable[str]) -> None:
        """Drop every handler registered for ``kinds`` (later copies are still logged)."""
        for kind in kinds:
            self._handlers.pop(kind, None)

    def deliver(self, message: Message) -> None:
        if self._stopped:
            return
        if not self._started:
            self._pre_start.append(message)
            return
        self.log.log("msg_recv", kind=message.kind)
        for handler in self._handlers.get(message.kind, ()):  # registration order
            handler(message)
        self.poke()

    def deliver_wire(self, frame: Any) -> None:
        """Deliver one decoded wire frame (from a peer connection)."""
        self.deliver(Message(frame["kind"], frame.get("payload", {})))

    # -- trace output ------------------------------------------------------
    def record(self, key: str, value: Any) -> None:
        if not self._stopped:
            self.log.log(key, value=value)

    def record_decision(self, value: Any) -> None:
        if not self._stopped:
            self.log.log("decide", value=value)

    # -- task trampoline ---------------------------------------------------
    def spawn_task(self, task_fn: Callable[[], Generator], *, name: str) -> None:
        if self._stopped:
            return
        generator = task_fn()
        if not hasattr(generator, "send"):
            raise TransportError(
                f"task {name!r} of node {self.index} is not a generator; tasks "
                "must be generator functions that yield blocking requests"
            )
        self._tasks.append(asyncio.get_running_loop().create_task(self._drive(generator, name)))

    def poke(self) -> None:
        """Wake every task blocked in ``wait_until`` to re-check its predicate."""
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def _drive(self, generator: Generator, name: str) -> None:
        try:
            while True:
                request = generator.send(None)
                if isinstance(request, Sleep):
                    await asyncio.sleep(request.duration * self.time_scale)
                elif isinstance(request, WaitUntil):
                    while not request.predicate():
                        waiter = asyncio.get_running_loop().create_future()
                        self._waiters.append(waiter)
                        await waiter
                elif isinstance(request, NextSyncStep):
                    raise TransportError(
                        "next_synchronous_step() has no meaning on the real "
                        "backend; synchronous (HSS) programs are sim-only"
                    )
                else:
                    raise TransportError(
                        f"task {name!r} of node {self.index} yielded an "
                        f"unsupported request: {request!r}"
                    )
        except StopIteration:
            return
        except asyncio.CancelledError:
            raise
