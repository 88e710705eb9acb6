"""Process programs and their runtime.

Algorithms are written as :class:`ProcessProgram` subclasses.  A program sees
the world only through its :class:`~repro.context.ProcessContext` (re-exported
here), which forwards to the process's :class:`ProcessRuntime`:

* ``ctx.identity`` — the process's own identifier ``id(p)`` (possibly shared
  with other processes);
* ``ctx.broadcast(kind, **fields)`` — the paper's ``broadcast(m)`` primitive;
* ``ctx.on(kind, handler)`` — "upon reception of ⟨kind, ...⟩ do" handlers;
* ``ctx.spawn(task)`` — start a task (the paper's "Task T1 / Task T2");
* ``yield ctx.sleep(d)`` / ``yield ctx.wait_until(pred)`` /
  ``yield ctx.next_synchronous_step()`` — the blocking constructs used by the
  paper's pseudo-code (``wait timeout``, ``wait until …``, synchronous steps);
* ``ctx.detector(name)`` — the query interface of an attached failure
  detector;
* ``ctx.record(key, value)`` / ``ctx.decide(value)`` — trace output.

A program never sees the membership, the failure pattern, other processes'
internal ids, or the global clock — matching the paper's adversaries
(homonymy, unknown membership, asynchrony).

Tasks are ordinary Python generator functions.  The runtime acts as a
trampoline: it resumes a task, receives the next blocking request it yields,
and schedules the continuation accordingly.

A blocked task's ``wait_until`` predicate runs after *every* delivery to its
process and on every poke, so almost every event of a run calls one.  Its
cost must be proportional to what arrived since its last call, not to the
history: a predicate that rescans a growing buffer makes a run quadratic.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Any, Callable, Generator, Iterable

from ..context import (
    BlockingRequest,
    NextSyncStep,
    ProcessContext,
    ProcessProgram,
    Sleep,
    WaitUntil,
)
from ..errors import ProcessCrashedError, SimulationError
from ..identity import Identity, ProcessId
from .clock import Clock, Time
from .events import KIND_RESUME, Event, EventQueue
from .message import Message
from .rng import RngStreams
from .timing import SynchronousTiming, TimingModel
from .trace import RunTrace

__all__ = [
    "Sleep",
    "WaitUntil",
    "NextSyncStep",
    "BlockingRequest",
    "ProcessProgram",
    "ProcessContext",
    "ProcessRuntime",
]


# ----------------------------------------------------------------------
# Runtime
# ----------------------------------------------------------------------
class _Task:
    """Book-keeping for one running task of a process."""

    __slots__ = ("name", "generator", "waiting_on", "pending_event")

    def __init__(self, name: str, generator: Generator) -> None:
        self.name = name
        self.generator = generator
        self.waiting_on: WaitUntil | None = None
        self.pending_event: Event | None = None


class ProcessRuntime:
    """Executes one process's program: trampoline, handlers, crash handling."""

    def __init__(
        self,
        process_id: ProcessId,
        identity: Identity,
        program: ProcessProgram,
        *,
        clock: Clock,
        queue: EventQueue,
        timing: TimingModel,
        trace: RunTrace,
        rng_streams: RngStreams,
        broadcast_fn: Callable[[ProcessId, Message], None],
        multicast_fn: Callable[[ProcessId, Message, Any], None],
    ) -> None:
        self.process_id = process_id
        self.identity = identity
        self.program = program
        self.clock = clock
        self._rng_streams = rng_streams
        self._queue = queue
        self._timing = timing
        self._charges_steps = timing.charges_steps
        self._trace = trace
        self._delivered = trace.delivered_by_kind
        self._broadcast_fn = broadcast_fn
        self._multicast_fn = multicast_fn
        self._handlers: dict[str, list[Callable[[Message], None]]] = {}
        #: Live tasks only, in spawn order: a task leaves when its generator
        #: finishes or the process crashes, so ``poke`` scans blocked work,
        #: not everything the process ever spawned.
        self._tasks: list[_Task] = []
        self._detector_views: dict[str, Any] = {}
        self._crashed = False
        self._started = False
        self.context = ProcessContext(self)

    @cached_property
    def rng(self) -> random.Random:
        """This process's stream, ``process:{index}`` of the run, made on first draw.

        Ring and mesh monitors and the consensus programs never draw, so
        most runs never make it (a Mersenne-Twister state is ≈ 2.9 KB).
        """
        return self._rng_streams.stream(f"process:{self.process_id.index}")

    # ------------------------------------------------------------------
    # Wiring (done by the simulation before the run starts)
    # ------------------------------------------------------------------
    def attach_detector_view(self, name: str, view: Any) -> None:
        """Attach the per-process query view of a failure detector."""
        self._detector_views[name] = view

    def detector_view(self, name: str) -> Any:
        """Return a previously attached detector view."""
        try:
            return self._detector_views[name]
        except KeyError:
            raise SimulationError(
                f"process {self.process_id!r} has no detector named {name!r}"
            ) from None

    def has_detector(self, name: str) -> bool:
        """Return ``True`` when a detector named ``name`` is attached."""
        return name in self._detector_views

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        """Whether the process has crashed."""
        return self._crashed

    def start(self) -> None:
        """Run the program's ``setup`` and begin executing its tasks."""
        if self._started:
            raise SimulationError(f"process {self.process_id!r} started twice")
        self._started = True
        self.program.setup(self.context)

    def crash(self) -> None:
        """Crash the process: stop all tasks and ignore future deliveries."""
        if self._crashed:
            return
        self._crashed = True
        self._trace.record_crash(self.process_id, self.clock.now)
        for task in self._tasks:
            if task.pending_event is not None:
                self._queue.cancel(task.pending_event)
        self._tasks.clear()

    def close(self) -> None:
        """Release the references that tie this runtime into cycles.

        Handlers and tasks are closures and generators over the context, the
        context points back here, detector views and the send callbacks lead
        to the simulation's detectors and network.  After ``close`` the
        runtime is inert; its trace output stays in the shared trace.
        """
        self._handlers = {}
        self._tasks = []
        self._detector_views = {}
        self.context = None
        self._broadcast_fn = self._multicast_fn = None

    # ------------------------------------------------------------------
    # Communication plumbing
    # ------------------------------------------------------------------
    def broadcast(self, message: Message) -> None:
        """Forward a broadcast to the network (errors after a crash)."""
        if self._crashed:
            raise ProcessCrashedError(
                f"crashed process {self.process_id!r} attempted to broadcast {message!r}"
            )
        self._broadcast_fn(self.process_id, message)

    def multicast(self, message: Message, targets: Any) -> None:
        """Forward a multicast to the network (errors after a crash)."""
        if self._crashed:
            raise ProcessCrashedError(
                f"crashed process {self.process_id!r} attempted to multicast {message!r}"
            )
        self._multicast_fn(self.process_id, message, targets)

    def register_handler(self, kind: str, handler: Callable[[Message], None]) -> None:
        """Register an "upon reception of" handler for a message kind."""
        self._handlers.setdefault(kind, []).append(handler)

    def remove_handlers(self, kinds: Iterable[str]) -> None:
        """Drop every handler registered for ``kinds``.

        A later copy of such a kind is still an event and still counted in
        ``delivered_by_kind``; it only runs no handler.  A delivery under way
        (a handler removing its own kind) finishes with the handlers it began
        with.
        """
        for kind in kinds:
            self._handlers.pop(kind, None)

    def deliver(self, message: Message) -> None:
        """Deliver one message copy: count it, run handlers, re-check waiting tasks.

        One frame for the whole delivery — the count is
        :meth:`RunTrace.record_delivery` and the scan is :meth:`poke`, both
        spelled out here because almost every event of a run is a delivery.
        """
        if self._crashed:
            return
        kind = message.kind
        delivered = self._delivered
        delivered[kind] = delivered.get(kind, 0) + 1
        for handler in self._handlers.get(kind, ()):  # registration order
            handler(message)
        for task in self._tasks:
            waiting_on = task.waiting_on
            if (
                waiting_on is not None
                and task.pending_event is None
                and waiting_on.predicate()
            ):
                task.waiting_on = None
                self._schedule_resumption(task, at=self.clock.now)

    # ------------------------------------------------------------------
    # Trace output
    # ------------------------------------------------------------------
    def record(self, key: str, value: Any) -> None:
        """Record a variable snapshot (ignored after a crash)."""
        if not self._crashed:
            self._trace.record(self.process_id, key, value, self.clock.now)

    def record_decision(self, value: Any) -> None:
        """Record a consensus decision (ignored after a crash)."""
        if not self._crashed:
            self._trace.record_decision(self.process_id, value, self.clock.now)

    # ------------------------------------------------------------------
    # Task trampoline
    # ------------------------------------------------------------------
    def spawn_task(self, task_fn: Callable[[], Generator], *, name: str) -> None:
        """Create a task from a generator function and schedule its first step."""
        if self._crashed:
            return
        generator = task_fn()
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"task {name!r} of process {self.process_id!r} is not a generator; "
                "tasks must be generator functions that yield blocking requests"
            )
        task = _Task(name=name, generator=generator)
        self._tasks.append(task)
        self._schedule_resumption(task, at=self.clock.now)

    def poke(self) -> None:
        """Re-evaluate the wait conditions of all blocked tasks."""
        for task in self._tasks:
            if task.waiting_on is None or task.pending_event is not None:
                continue
            if task.waiting_on.predicate():
                task.waiting_on = None
                self._schedule_resumption(task, at=self.clock.now)

    # -- internals --------------------------------------------------------
    def _schedule_resumption(self, task: _Task, *, at: Time) -> None:
        if self._charges_steps:
            at += self._timing.step_delay(self.process_id, at, self.rng)
        task.pending_event = self._queue.schedule(
            at,
            self._resume,
            args=(task,),
            priority=2,
            kind=KIND_RESUME,
            not_before=self.clock.now,
        )

    def _resume(self, task: _Task) -> None:
        task.pending_event = None
        if self._crashed:
            return
        while True:
            try:
                request = task.generator.send(None)
            except StopIteration:
                self._tasks.remove(task)
                return
            if isinstance(request, Sleep):
                self._schedule_resumption_after(task, delay=request.duration)
                return
            if isinstance(request, WaitUntil):
                if request.predicate():
                    continue
                task.waiting_on = request
                return
            if isinstance(request, NextSyncStep):
                self._schedule_sync_step_resumption(task)
                return
            raise SimulationError(
                f"task {task.name!r} of {self.process_id!r} yielded an unsupported "
                f"request: {request!r}"
            )

    def _schedule_resumption_after(self, task: _Task, *, delay: Time) -> None:
        self._schedule_resumption(task, at=self.clock.now + delay)

    def _schedule_sync_step_resumption(self, task: _Task) -> None:
        if not isinstance(self._timing, SynchronousTiming):
            raise SimulationError(
                "next_synchronous_step() requires a synchronous timing model (HSS)"
            )
        boundary = self._timing.next_step_start(self.clock.now)
        task.pending_event = self._queue.schedule(
            boundary,
            self._resume,
            args=(task,),
            priority=2,
            kind=KIND_RESUME,
            not_before=self.clock.now,
        )
