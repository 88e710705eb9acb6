"""The simulation engine.

:class:`Simulation` turns a declarative :class:`~repro.sim.system.System` into
an executable run: it creates the clock, event queue, network, one
:class:`~repro.sim.process.ProcessRuntime` per process, and one instance per
attached failure detector; schedules the crash events; and then processes
events in deterministic order until a stop condition, the time horizon, or
quiescence is reached.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from ..errors import SimulationError
from ..identity import ProcessId
from .clock import Clock, Time
from .events import KIND_CRASH, KIND_DETECTOR, EventQueue
from .failures import FailurePattern
from .network import Network
from .process import ProcessRuntime
from .rng import RngStreams
from .system import DetectorServices, System
from .trace import RunTrace

__all__ = ["Simulation", "capture_digests"]

#: Crash events run after all other activity at the same instant, so a process
#: that broadcasts "at the moment of its crash" still issues the (possibly
#: partially delivered) broadcast — matching the paper's crash-while-
#: broadcasting allowance.
_CRASH_PRIORITY = 5

_DEFAULT_MAX_EVENTS = 5_000_000

#: When set to a list, every completed :meth:`Simulation.run` appends the
#: queue's integer digest to it.  This is the capture point digest manifests
#: use to harvest per-run digests *inside worker processes* (where a parent
#: monkeypatch never arrives under the ``spawn`` start method); set it with
#: :func:`capture_digests`.  ``None`` (the default) keeps the hot path free
#: of any bookkeeping beyond one global read per run.
DIGEST_SINK: list[int] | None = None


@contextmanager
def capture_digests(sink: list[int] | None = None) -> Iterator[list[int]]:
    """Collect the digest of every run completed inside the ``with`` block.

    Yields the list the digests land in, in completion order — ``sink`` when
    given (so one list can also gather digests shipped back from workers),
    else a fresh one — and restores the previous sink on exit.
    """
    global DIGEST_SINK
    previous, DIGEST_SINK = DIGEST_SINK, [] if sink is None else sink
    try:
        yield DIGEST_SINK
    finally:
        DIGEST_SINK = previous


class Simulation:
    """One executable run of a :class:`~repro.sim.system.System`."""

    def __init__(self, system: System) -> None:
        self.system = system
        self.clock = Clock()
        self.queue = EventQueue(debug_labels=system.debug)
        self.trace = RunTrace()
        self.rng_streams = RngStreams(system.seed)
        self.failure_pattern: FailurePattern = system.failure_pattern()
        self.network = Network(
            system.membership,
            system.timing,
            self.failure_pattern,
            clock=self.clock,
            queue=self.queue,
            trace=self.trace,
            rng=self.rng_streams.stream("network"),
            links=system.links,
        )
        self.runtimes: dict[ProcessId, ProcessRuntime] = {}
        self.detectors: dict[str, object] = {}
        self._started = False
        self._events_processed = 0
        self._build_runtimes()
        self._instantiate_detectors()
        self._schedule_crashes()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_runtimes(self) -> None:
        for process in self.system.membership.processes:
            identity = self.system.membership.identity_of(process)
            program = self.system.program_factory(process, identity)
            runtime = ProcessRuntime(
                process,
                identity,
                program,
                clock=self.clock,
                queue=self.queue,
                timing=self.system.timing,
                trace=self.trace,
                rng=self.rng_streams.stream(f"process:{process.index}"),
                broadcast_fn=self.network.broadcast,
                multicast_fn=self.network.multicast,
            )
            self.runtimes[process] = runtime
        self.network.connect(
            {process: runtime.deliver for process, runtime in self.runtimes.items()}
        )

    def _instantiate_detectors(self) -> None:
        services = DetectorServices(
            membership=self.system.membership,
            failure_pattern=self.failure_pattern,
            clock=self.clock,
            rng_streams=self.rng_streams.spawn("detectors"),
            schedule=self._schedule_callback,
            poke_all=self.poke_all,
        )
        for name, factory in self.system.detectors.items():
            detector = factory(services)
            self.detectors[name] = detector
            for process, runtime in self.runtimes.items():
                runtime.attach_detector_view(name, detector.view_for(process))

    def _schedule_crashes(self) -> None:
        events = self.system.crash_schedule.events
        self.queue.schedule_all(
            [float(event.time) for event in events],
            [self.runtimes[event.process].crash for event in events],
            (),
            priority=_CRASH_PRIORITY,
            kind=KIND_CRASH,
            not_before=0.0,
        )

    def _schedule_callback(self, when: Time, action: Callable[[], None]):
        return self.queue.schedule(
            when, action, priority=3, label="detector-wakeup", kind=KIND_DETECTOR
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def poke_all(self) -> None:
        """Re-evaluate the wait conditions of every live process."""
        for runtime in self.runtimes.values():
            runtime.poke()

    def start(self) -> None:
        """Run every process's ``setup`` (idempotent)."""
        if self._started:
            return
        self._started = True
        for runtime in self.runtimes.values():
            runtime.start()

    def run(
        self,
        *,
        until: Time,
        stop_when: Callable[["Simulation"], bool] | None = None,
        max_events: int = _DEFAULT_MAX_EVENTS,
    ) -> RunTrace:
        """Execute events until ``until``, a stop condition, or quiescence.

        ``stop_when`` is evaluated after each processed event; returning
        ``True`` ends the run early (the usual condition is "every correct
        process has decided").  Per-run facts are resolved once; ``stop_when``
        is still evaluated after every event, so keep it O(1) — compare a
        count that the rare event bumps (:meth:`all_correct_decided` does).
        ``max_events`` is a safety valve against accidentally unbounded
        algorithms.
        """
        if until < self.clock.now:
            raise SimulationError(
                f"cannot run until {until}: the clock is already at {self.clock.now}"
            )
        self.start()
        if stop_when is not None and stop_when(self):
            self.trace.mark_end(self.clock.now)
            if DIGEST_SINK is not None:
                DIGEST_SINK.append(self.queue.digest)
            return self.trace
        stopped_early = False
        pop_next = self.queue.pop_next
        clock = self.clock
        processed = self._events_processed
        while True:
            # One fused call: returns None both when the queue is empty and
            # when the next event lies beyond the horizon.
            entry = pop_next(until)
            if entry is None:
                break
            # ``clock.advance_to(time)`` without the call, once per event.
            time = entry[0]
            if time < clock._now:
                clock.advance_to(time)  # raises: the clock never moves backwards
            clock._now = time
            entry[4](*entry[5])
            self._events_processed = processed = processed + 1
            if processed > max_events:
                raise SimulationError(
                    f"the run exceeded {max_events} events; "
                    "the algorithm is probably not quiescing"
                )
            if stop_when is not None and stop_when(self):
                stopped_early = True
                break
        if not stopped_early:
            # The horizon was reached (or the system quiesced before it); the
            # run formally covers the whole interval up to ``until``.
            self.clock.advance_to(until)
        self.trace.mark_end(self.clock.now)
        if DIGEST_SINK is not None:
            DIGEST_SINK.append(self.queue.digest)
        return self.trace

    # ------------------------------------------------------------------
    # Convenience queries (used by stop conditions and tests)
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """How many events have been executed so far."""
        return self._events_processed

    @property
    def digest(self) -> str:
        """The run's determinism digest as a fixed-width hex string.

        Equal digests mean the run dispatched exactly the same events (same
        times, priorities, sequence numbers, and kinds) in the same order —
        see :attr:`repro.sim.events.EventQueue.digest`.
        """
        return f"{self.queue.digest:016x}"

    def all_correct_decided(self) -> bool:
        """Return ``True`` when every correct process has decided."""
        return self.trace.all_decided(self.failure_pattern.correct)

    def detector(self, name: str) -> object:
        """Return an attached detector instance by name."""
        try:
            return self.detectors[name]
        except KeyError:
            raise SimulationError(f"no detector named {name!r} is attached") from None
