"""The broadcast network.

The network owns the directed links between every ordered pair of processes
and turns one ``broadcast(m)`` invocation into ``n`` link messages.  Two
collaborators decide the fate of each copy:

* the :class:`~repro.sim.timing.TimingModel` draws *when* the copy would
  arrive (and may declare paper-sanctioned pre-GST loss in the partially
  synchronous model);
* the :class:`~repro.sim.links.LinkModel` decides *whether* and *how many*
  copies actually arrive — loss, duplication, jitter, per-direction latency
  penalties, and timed partitions all live there.

The default :class:`~repro.sim.links.ReliableLinks` model is the identity:
no duplication, no corruption, no spurious messages, which reproduces the
behaviour of the pre-link-model network seed for seed.  Loss is then only
possible before GST under the partially synchronous model, and for the final
broadcast of a process that crashes mid-broadcast (both allowed by the paper).
"""

from __future__ import annotations

import random
from typing import Callable, Mapping

from ..errors import SchedulingError, SimulationError
from ..identity import ProcessId
from ..membership import Membership
from .clock import Clock
from .events import KIND_DELIVERY, EventQueue
from .failures import CrashEvent, FailurePattern
from .links import LinkModel, ReliableLinks
from .message import Message
from .timing import TimingModel
from .trace import RunTrace

__all__ = ["Network"]

#: Delivery events run before process wake-ups scheduled at the same instant,
#: so a process resumed at time T has already received everything due at T.
_DELIVERY_PRIORITY = 1

#: Tolerance when matching "the broadcast issued at the instant of the crash".
_CRASH_BROADCAST_TOLERANCE = 1e-9


def _early_delivery(model: str, when: float, sent_at: float) -> SimulationError:
    return SimulationError(
        f"{model} model produced a delivery before the send time ({when} < {sent_at})"
    )


class Network:
    """Schedules message deliveries for broadcasts."""

    def __init__(
        self,
        membership: Membership,
        timing: TimingModel,
        failure_pattern: FailurePattern,
        *,
        clock: Clock,
        queue: EventQueue,
        trace: RunTrace,
        rng: random.Random,
        links: LinkModel | None = None,
    ) -> None:
        self._membership = membership
        self._timing = timing
        self._pattern = failure_pattern
        self._clock = clock
        self._queue = queue
        self._trace = trace
        self._rng = rng
        self._links = links if links is not None else ReliableLinks()
        # The identity model needs no per-copy transformation; skipping the
        # call keeps the default broadcast path as lean as before the layer
        # existed (and RNG-draw-identical, since ReliableLinks never draws).
        self._links_are_reliable = type(self._links) is ReliableLinks
        # The full recipient tuple never changes; resolve it once instead of
        # re-deriving it from the membership on every broadcast.
        self._everyone: tuple[ProcessId, ...] = membership.processes
        index_bound = max(process.index for process in self._everyone) + 1
        # Only crashes that may truncate a same-instant broadcast matter to
        # the hot path; resolving them once here (into an index-addressed
        # list, so the per-broadcast probe is one list access instead of a
        # dict hash) replaces a linear scan of the schedule per broadcast.
        self._partial_crash_by_index: list[CrashEvent | None] = [None] * index_bound
        for event in failure_pattern.schedule.events:
            if event.partial_broadcast_fraction is not None:
                self._partial_crash_by_index[event.process.index] = event
        self._deliver_to: Mapping[ProcessId, Callable[[Message], None]] = {}
        # Delivery callbacks addressed by process index (list indexing beats
        # dict hashing), and resolved once for the one recipient set nearly
        # every send has: everyone.
        self._deliver_by_index: list[Callable[[Message], None] | None] = []
        self._deliver_to_everyone: tuple[Callable[[Message], None], ...] = ()
        # Index → ProcessId, for resolving multicast target sets.
        self._process_by_index: list[ProcessId | None] = [None] * index_bound
        for process in self._everyone:
            self._process_by_index[process.index] = process

    @property
    def links(self) -> LinkModel:
        """The link model shaping per-link delivery behaviour."""
        return self._links

    def connect(self, deliver_to: Mapping[ProcessId, Callable[[Message], None]]) -> None:
        """Wire the per-process delivery callbacks (done once by the simulation)."""
        missing = set(self._membership.processes) - set(deliver_to)
        if missing:
            raise SimulationError(f"no delivery callback for processes {sorted(missing)}")
        self._deliver_to = dict(deliver_to)
        index_bound = max(process.index for process in deliver_to) + 1
        by_index: list[Callable[[Message], None] | None] = [None] * index_bound
        for process, callback in deliver_to.items():
            by_index[process.index] = callback
        self._deliver_by_index = by_index
        self._deliver_to_everyone = tuple(by_index[p.index] for p in self._everyone)

    # ------------------------------------------------------------------
    # The send primitives
    # ------------------------------------------------------------------
    def broadcast(self, sender: ProcessId, message: Message) -> None:
        """Send one copy of ``message`` along the link to every process."""
        recipients = self._recipients_for(sender, self._clock.now)
        self._trace.record_broadcast(message.kind, copies=len(recipients))
        self._send(sender, message, recipients)

    def multicast(self, sender: ProcessId, message: Message, targets) -> None:
        """Send one copy of ``message`` to the processes at ``targets`` only.

        ``targets`` is an iterable of process *indices* (a monitoring
        topology's target set); the sender only hears its own message when
        its own index is targeted.
        """
        recipients = self._multicast_recipients(sender, self._clock.now, targets)
        self._trace.record_broadcast(message.kind, copies=len(recipients))
        self._send(sender, message, recipients)

    def _send(
        self, sender: ProcessId, message: Message, recipients: tuple[ProcessId, ...]
    ) -> None:
        """The copy fate pipeline: one queue call schedules every surviving copy.

        The link models differ only in how the copies' times are drawn:
        reliable links take one amortised
        :meth:`~repro.sim.timing.TimingModel.delivery_times` call (a single
        computation under HSS, where every copy arrives at the same instant);
        adversarial links go copy by copy through
        :meth:`~repro.sim.links.LinkModel.deliveries`, preserving the
        per-receiver RNG draw interleaving.  A ``None`` time is a copy lost
        before GST (partially synchronous model only).
        """
        deliver = self._deliver_by_index
        if not deliver:
            raise SimulationError("the network has not been connected to any processes")
        if not recipients:
            return
        sent_at = self._clock.now
        if self._links_are_reliable:
            drawn_by = "timing"
            times = self._timing.delivery_times(sender, recipients, sent_at, self._rng)
        else:
            drawn_by = "link"
            recipients, times = self._through_links(sender, recipients, sent_at)
        if recipients is self._everyone:
            callbacks = self._deliver_to_everyone
        else:
            callbacks = [deliver[receiver.index] for receiver in recipients]
        queue = self._queue
        try:
            if queue.debug_labels:
                # The labelled spelling of ``schedule_all``, one handle per copy.
                for receiver, when, callback in zip(recipients, times, callbacks):
                    if when is not None:
                        queue.schedule(
                            when,
                            callback,
                            args=(message,),
                            priority=_DELIVERY_PRIORITY,
                            label=f"deliver {message.kind} to {receiver!r}",
                            kind=KIND_DELIVERY,
                            not_before=sent_at,
                        )
            else:
                queue.schedule_all(
                    times,
                    callbacks,
                    (message,),
                    priority=_DELIVERY_PRIORITY,
                    kind=KIND_DELIVERY,
                    not_before=sent_at,
                )
        except SchedulingError as error:
            for when in times:
                if when is not None and not when >= sent_at:
                    raise _early_delivery(drawn_by, when, sent_at) from error
            raise

    def _through_links(
        self, sender: ProcessId, recipients: tuple[ProcessId, ...], sent_at: float
    ) -> tuple[list[ProcessId], list[float]]:
        """Draw each copy's time, then let the link model drop, repeat or
        re-time it: the receiver and time of every copy that will arrive."""
        timing = self._timing
        links = self._links
        rng = self._rng
        receivers: list[ProcessId] = []
        times: list[float] = []
        for receiver in recipients:
            drawn = timing.delivery_time(sender, receiver, sent_at, rng)
            if drawn is None:
                continue
            if drawn < sent_at:
                raise _early_delivery("timing", drawn, sent_at)
            for when in links.deliveries(sender, receiver, sent_at, (drawn,), rng):
                receivers.append(receiver)
                times.append(when)
        return receivers, times

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _multicast_recipients(
        self, sender: ProcessId, sent_at: float, targets
    ) -> tuple[ProcessId, ...]:
        """Resolve target indices to processes, honouring crash truncation."""
        by_index = self._process_by_index
        bound = len(by_index)
        recipients: list[ProcessId] = []
        for index in targets:
            process = by_index[index] if 0 <= index < bound else None
            if process is None:
                raise SimulationError(
                    f"multicast target index {index} names no process "
                    f"(membership has indices 0..{bound - 1})"
                )
            recipients.append(process)
        recipients.sort()
        crash_event = self._partial_crash_by_index[sender.index]
        if (
            crash_event is not None
            and abs(crash_event.time - sent_at) <= _CRASH_BROADCAST_TOLERANCE
        ):
            subset_size = int(
                crash_event.partial_broadcast_fraction * len(recipients)
            )
            chosen = self._rng.sample(recipients, k=subset_size) if subset_size else []
            return tuple(sorted(chosen))
        return tuple(recipients)

    def _recipients_for(self, sender: ProcessId, sent_at: float) -> tuple[ProcessId, ...]:
        """All processes, unless the sender crashes during this very broadcast.

        The paper allows the message of a process that crashes while
        broadcasting to reach an arbitrary subset of processes.  We model this
        for broadcasts issued at the instant of the sender's crash (the crash
        event is applied after same-time process activity): a random subset of
        the configured size receives the copy.
        """
        everyone = self._everyone
        crash_event = self._partial_crash_by_index[sender.index]
        if (
            crash_event is not None
            and abs(crash_event.time - sent_at) <= _CRASH_BROADCAST_TOLERANCE
        ):
            subset_size = int(crash_event.partial_broadcast_fraction * len(everyone))
            chosen = self._rng.sample(list(everyone), k=subset_size) if subset_size else []
            return tuple(sorted(chosen))
        return everyone
