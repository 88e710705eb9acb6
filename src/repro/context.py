"""The backend-agnostic program/context protocol.

Algorithms are written as :class:`ProcessProgram` subclasses and see the world
only through a :class:`ProcessContext`.  The protocol is deliberately
*backend-free*: nothing in it mentions the discrete-event scheduler, event
queues, or wall clocks, so the same program object runs unchanged on

* the discrete-event simulator (:class:`repro.sim.process.ProcessRuntime`,
  where ``now`` is simulated time and ``sleep`` schedules a resume event), and
* the real asyncio/TCP transport backend
  (:class:`repro.transport.context.RealNodeRuntime`, a ``ProcessRuntime``
  whose ``now`` is a shared monotonic clock scaled to scenario time units and
  whose resumptions are event-loop timers).

One :class:`ProcessContext` class forwards to either runtime, so what a
program sees is declared once.  The blocking vocabulary (:class:`Sleep`,
:class:`WaitUntil`, :class:`NextSyncStep`) is shared: tasks are ordinary
generator functions that yield these requests, and one trampoline,
``ProcessRuntime``'s, resumes them on both backends.  A program must never
import simulator internals (``repro.sim.scheduler``, ``repro.sim.events``,
``repro.sim.process``); a tier-1 lint test enforces this for every program
module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Generator

from .errors import SimulationError
from .identity import Identity

__all__ = [
    "Sleep",
    "WaitUntil",
    "NextSyncStep",
    "BlockingRequest",
    "ProcessProgram",
    "ProcessContext",
]


# ----------------------------------------------------------------------
# Blocking requests that tasks may yield
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Sleep:
    """Suspend the task for ``duration`` scenario time units."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise SimulationError("cannot sleep for a negative duration")


@dataclass(frozen=True, slots=True)
class WaitUntil:
    """Suspend the task until ``predicate()`` becomes true.

    The predicate is re-evaluated after *every* message delivered to the
    process, whatever its kind, and whenever the process is poked (e.g.
    because an attached detector's output changed).  So its cost must be
    proportional to what arrived since its last call, not to the history:
    keep what it reads in matched form as messages arrive (the consensus
    quorum rules' :class:`~repro.consensus.rules.QuorumAssembly` does) rather
    than rescanning a buffer on each call.
    """

    predicate: Callable[[], bool]


@dataclass(frozen=True, slots=True)
class NextSyncStep:
    """Suspend the task until the next synchronous step boundary (HSS only)."""


BlockingRequest = Sleep | WaitUntil | NextSyncStep


# ----------------------------------------------------------------------
# Program interface
# ----------------------------------------------------------------------
class ProcessProgram:
    """Base class for the algorithm run by one process.

    Subclasses override :meth:`setup` to register message handlers and spawn
    tasks.  Programs of homonymous processes are *identical by construction*
    (the paper's assumption that homonymous processes execute the same
    program): any per-process input (such as a proposal value) must be passed
    explicitly through the constructor by the scenario builder.
    """

    def setup(self, ctx: ProcessContext) -> None:
        """Register handlers and spawn tasks.  Called once when the run starts."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable name used in traces and experiment tables."""
        return type(self).__name__


class ProcessContext:
    """The program-facing API of one process, on either backend.

    One class serves both backends: it forwards to a *runtime* — the
    simulator's :class:`~repro.sim.process.ProcessRuntime` or its transport
    subclass :class:`~repro.transport.context.RealNodeRuntime`, so tasks
    resume through one trampoline — which provides
    ``identity``, ``clock.now``, ``rng``, ``broadcast(message)``,
    ``multicast(message, targets)``, ``register_handler``, ``remove_handlers``,
    ``spawn_task``, ``detector_view``, ``has_detector``, ``attach_detector_view``,
    ``record`` and ``record_decision``.  A program never sees the membership,
    the failure pattern, other processes' internal ids, or the global clock —
    matching the paper's adversaries (homonymy, unknown membership, asynchrony).
    """

    __slots__ = ("_runtime",)

    def __init__(self, runtime: Any) -> None:
        self._runtime = runtime

    # -- static facts ---------------------------------------------------
    @property
    def identity(self) -> Identity:
        """The process's own identifier ``id(p)``."""
        return self._runtime.identity

    @property
    def now(self) -> float:
        """The current time in scenario time units.

        Exposed for local timing and trace annotations only; algorithm logic
        must not branch on absolute time (the paper's processes cannot read
        the global clock).
        """
        return self._runtime.clock.now

    @property
    def random(self) -> random.Random:
        """A per-process deterministic random stream, the same object on every read.

        The simulator makes it on first read (the run's ``process:{index}``
        stream, so when it is made never changes what it draws); a real node
        makes its own at start-up.
        """
        return self._runtime.rng

    # -- blocking requests ------------------------------------------------
    def sleep(self, duration: float) -> Sleep:
        """Yieldable: suspend for ``duration`` time units (``wait timeout``)."""
        return Sleep(duration)

    def wait_until(self, predicate: Callable[[], bool]) -> WaitUntil:
        """Yieldable: suspend until ``predicate()`` holds (``wait until …``)."""
        return WaitUntil(predicate)

    def next_synchronous_step(self) -> NextSyncStep:
        """Yieldable: suspend until the next synchronous step boundary."""
        return NextSyncStep()

    # -- communication ---------------------------------------------------
    def broadcast(self, kind: str, **fields: Any) -> None:
        """Broadcast ``⟨kind, fields…⟩`` to every process, including the sender."""
        self._runtime.broadcast(Message(kind, fields))

    def multicast(self, kind: str, targets: Any, **fields: Any) -> None:
        """Send ``⟨kind, fields…⟩`` to the processes at the given *indices* only.

        ``targets`` is an iterable of process indices (the transport-level
        addresses; a monitoring topology's target sets).  Unlike
        :meth:`broadcast`, the sender only receives its own message if its own
        index is among the targets.  Sparse monitoring topologies are built on
        this; paper-figure algorithms keep using :meth:`broadcast`, matching
        their pseudo-code.
        """
        self._runtime.multicast(Message(kind, fields), targets)

    def on(self, kind: str, handler: Callable[[Message], None]) -> None:
        """Register an "upon reception of ⟨kind, …⟩" handler."""
        self._runtime.register_handler(kind, handler)

    # -- tasks -------------------------------------------------------------
    def spawn(self, task: Callable[[], Generator], *, name: str = "") -> None:
        """Start a task (a generator function yielding blocking requests)."""
        self._runtime.spawn_task(task, name=name or getattr(task, "__name__", "task"))

    # -- failure detectors -------------------------------------------------
    def detector(self, name: str) -> Any:
        """Return the query view of the attached detector registered as ``name``."""
        return self._runtime.detector_view(name)

    def has_detector(self, name: str) -> bool:
        """Return ``True`` when a detector named ``name`` is attached."""
        return self._runtime.has_detector(name)

    def attach_detector(self, name: str, view: Any) -> None:
        """Attach a detector view from within a program.

        This is how a *stacked* configuration works: a composite program runs a
        detector implementation (e.g. the Figure 6 polling algorithm) next to a
        consensus algorithm on the same process and exposes the implementation's
        output as the detector the consensus algorithm queries.
        """
        self._runtime.attach_detector_view(name, view)

    # -- trace output ------------------------------------------------------
    def record(self, key: str, value: Any) -> None:
        """Record a time-stamped variable snapshot into the run trace."""
        self._runtime.record(key, value)

    def decide(self, value: Any) -> None:
        """Record a consensus decision (first decision wins)."""
        self._runtime.record_decision(value)


# Imported last: ``repro.sim``'s package imports ``sim.process``, which
# imports the names above.
from .sim.message import Message  # noqa: E402
