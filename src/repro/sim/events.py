"""Event queue for the discrete-event engine.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
makes ordering total and deterministic: two events scheduled for the same time
run in the order they were scheduled, which keeps runs reproducible for a
fixed seed.

This module is the simulator's hot path: every broadcast copy, task
resumption, and detector wake-up passes through :meth:`EventQueue.schedule`
and :meth:`EventQueue.pop_next`.  Three design choices keep it lean:

* :class:`Event` is a plain ``__slots__`` class and heap entries are
  ``(time, priority, sequence, event)`` tuples with a unique sequence, so
  every heap comparison happens at C speed and never reaches the event;
* popped delivery events can be recycled through an internal free list
  (:meth:`EventQueue.recycle`), so steady-state dispatch allocates no new
  event objects;
* same-tick broadcasts go through :meth:`EventQueue.schedule_batch`, which
  stores one heap entry for ``n`` logical deliveries (one ``heappush`` and one
  ``heappop`` instead of ``n`` of each) while preserving per-delivery sequence
  numbers, dispatch order, and the determinism digest exactly.

The queue also maintains an always-on **determinism digest**: a 64-bit
running hash folded over ``(time, priority, sequence, kind)`` of every event
it dispatches.  Two runs with equal digests dispatched exactly the same
events in exactly the same order, which turns "the refactor did not change
behaviour" from an assertion into a checkable equality.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Sequence

from ..errors import SchedulingError
from .clock import Time

__all__ = [
    "Event",
    "EventQueue",
    "KIND_INTERNAL",
    "KIND_DELIVERY",
    "KIND_RESUME",
    "KIND_DETECTOR",
    "KIND_CRASH",
]

#: Event kind codes, hashed into the determinism digest at dispatch.  They are
#: small ints (not strings) so digest updates stay allocation-free and
#: deterministic across processes (``hash(int)`` is never randomized).
KIND_INTERNAL = 0
KIND_DELIVERY = 1
KIND_RESUME = 2
KIND_DETECTOR = 3
KIND_CRASH = 4

_DIGEST_MASK = 0xFFFFFFFFFFFFFFFF
_FNV_PRIME = 1099511628211

#: Upper bound on the recycled-event free list; beyond this, popped events are
#: simply left to the garbage collector.
_POOL_LIMIT = 1024


class Event:
    """A scheduled callback.

    ``priority`` breaks ties at equal times: lower runs first.  Message
    deliveries use priority 1 and internal wake-ups priority 2 so that a
    process woken at time T sees every message delivered at T.

    ``args`` are passed to ``action`` when the event fires, so hot paths can
    schedule a bound method plus its argument instead of allocating a closure
    per event.  ``run()`` is the one way to fire an event.

    ``batch`` is ``None`` for ordinary events.  For a batched event (see
    :meth:`EventQueue.schedule_batch`) it holds ``(sequences, actions)`` —
    the queue serves the entries one ``pop_next()`` at a time by rebinding
    ``sequence``/``action`` on this single object, so batch handles must not
    be retained or cancelled by callers.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "action",
        "args",
        "cancelled",
        "popped",
        "label",
        "kind",
        "batch",
    )

    def __init__(
        self,
        time: Time,
        priority: int,
        sequence: int,
        action: Callable[..., None],
        args: tuple = (),
        label: str = "",
        kind: int = KIND_INTERNAL,
        batch: tuple[tuple[int, ...], tuple[Callable[..., None], ...]] | None = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.action = action
        self.args = args
        self.cancelled = False
        self.popped = False
        self.label = label
        self.kind = kind
        self.batch = batch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"Event(t={self.time}, prio={self.priority}, seq={self.sequence},"
            f" kind={self.kind}{tag})"
        )

    def run(self) -> None:
        """Execute the event's action with its arguments."""
        self.action(*self.args)


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    ``debug_labels`` gates the construction of diagnostic event labels: when
    it is ``False`` (the default) callers skip building their label strings,
    which keeps the broadcast hot path free of f-string formatting.  Flip it
    to ``True`` before a run to get labelled events for debugging.
    """

    def __init__(self, *, debug_labels: bool = False) -> None:
        # Heap entries are ``(time, priority, sequence, event)`` tuples:
        # heapq then compares at C speed without ever calling a Python-level
        # ``__lt__`` (the sequence is unique, so ties never reach the event).
        self._heap: list[tuple[Time, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        self._digest = 0
        self._free: list[Event] = []
        # Stack of ``[event, next_entry_index]`` pairs for batches being
        # served.  A batch higher on the stack always precedes the remaining
        # entries of every batch below it (it reached the heap head while the
        # one below was draining), so only the top needs consulting.
        self._draining: list[list] = []
        self.debug_labels = debug_labels

    def __len__(self) -> int:
        return self._live

    def is_empty(self) -> bool:
        """Return ``True`` when no live (non-cancelled) events remain."""
        return self._live == 0

    @property
    def digest(self) -> int:
        """The running determinism digest over every dispatched event.

        Every event popped for execution folds ``(time, priority, sequence,
        kind)`` into a 64-bit running hash.  Two runs with the same digest
        dispatched exactly the same events in exactly the same order, so the
        digest is a cheap, always-on witness that a refactor (or a parallel
        executor) left behaviour unchanged.  Labels are deliberately excluded:
        they are debug-only and may be absent.
        """
        return self._digest

    def schedule(
        self,
        time: Time,
        action: Callable[..., None],
        *,
        args: tuple = (),
        priority: int = 0,
        label: str = "",
        kind: int = KIND_INTERNAL,
        not_before: Time | None = None,
    ) -> Event:
        """Schedule ``action(*args)`` to run at ``time`` and return the event handle.

        ``not_before`` lets the caller assert that the event is not being
        scheduled in its own past (the engine passes the current clock value).
        """
        if time < 0:
            raise SchedulingError(f"cannot schedule an event at negative time {time}")
        if not_before is not None and time < not_before:
            raise SchedulingError(
                f"cannot schedule an event at {time}, which is before the current time {not_before}"
            )
        time = float(time)
        sequence = next(self._counter)
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.sequence = sequence
            event.action = action
            event.args = args
            event.cancelled = False
            event.popped = False
            event.label = label
            event.kind = kind
        else:
            event = Event(time, priority, sequence, action, args, label, kind)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        self._live += 1
        return event

    def schedule_batch(
        self,
        time: Time,
        actions: Sequence[Callable[..., None]],
        *,
        args: tuple = (),
        priority: int = 0,
        label: str = "",
        kind: int = KIND_INTERNAL,
        not_before: Time | None = None,
    ) -> Event:
        """Schedule ``n`` same-time, same-priority logical events as one heap entry.

        Each action still receives its own sequence number (assigned here, in
        order), counts separately toward ``len(queue)``, is dispatched by its
        own ``pop_next()`` call, and is hashed individually into the digest —
        so a batched broadcast is indistinguishable from ``n`` separate
        ``schedule`` calls, at the cost of a single heap operation.  All
        actions share ``args``.  The returned handle is internal bookkeeping:
        it must not be cancelled or retained (the queue rebinds it per entry).
        """
        if not actions:
            raise SchedulingError("cannot schedule an empty batch")
        if time < 0:
            raise SchedulingError(f"cannot schedule an event at negative time {time}")
        if not_before is not None and time < not_before:
            raise SchedulingError(
                f"cannot schedule an event at {time}, which is before the current time {not_before}"
            )
        if len(actions) == 1:
            return self.schedule(
                time, actions[0], args=args, priority=priority, label=label, kind=kind
            )
        time = float(time)
        counter = self._counter
        sequences = tuple([next(counter) for _ in actions])
        event = Event(
            time,
            priority,
            sequences[0],
            actions[0],
            args,
            label,
            kind,
            (sequences, tuple(actions)),
        )
        heapq.heappush(self._heap, (time, priority, sequences[0], event))
        self._live += len(sequences)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` and keep the live-event count accurate.

        This is the single safe cancellation entry point: it flips the
        event's flag and adjusts the queue's accounting in one call, and is
        idempotent (cancelling twice, or cancelling an already popped event's
        stale handle, does not corrupt the count).
        """
        if event.batch is not None:
            raise SchedulingError("batch events are internal and cannot be cancelled")
        if event.cancelled or event.popped:
            return
        event.cancelled = True
        self._live -= 1
        if self._live < 0:
            self._live = 0
            raise SchedulingError(
                "the queue's live-event count went negative on cancel(); "
                "an event's cancelled/popped flags were corrupted externally"
            )

    def recycle(self, event: Event) -> None:
        """Return a dispatched event to the free list for reuse by ``schedule``.

        Only safe when the caller guarantees no other reference to the handle
        survives — a recycled object is rebound to a future, unrelated event,
        so a retained handle would cancel or inspect the wrong one.  The
        engine recycles delivery events only (their handles are never kept);
        anything still live, cancelled mid-flight, or part of a batch is
        silently left for the garbage collector.
        """
        if event.batch is not None or not event.popped or event.cancelled:
            return
        free = self._free
        if len(free) < _POOL_LIMIT:
            event.action = _discarded
            event.args = ()
            free.append(event)

    def pop_next(self, until: Time | None = None) -> Event | None:
        """Remove and return the next live event, or ``None`` when empty.

        With ``until`` set, an event later than ``until`` is left in place and
        ``None`` is returned — the engine's horizon check without a separate
        ``peek_time`` round-trip per event.

        A draining batch (see :meth:`schedule_batch`) is served one logical
        entry per call, interleaved in correct ``(time, priority, sequence)``
        order with whatever else reaches the head of the heap.
        """
        heap = self._heap
        stack = self._draining
        if stack:
            entry = stack[-1]
            draining: Event | None = entry[0]
            sequences, actions = draining.batch
            index = entry[1]
            sequence = sequences[index]
            time = draining.time
            priority = draining.priority
            while heap:
                head = heap[0]
                if head[3].cancelled:
                    heapq.heappop(heap)
                    continue
                if head[0] < time or (
                    head[0] == time
                    and (head[1] < priority or (head[1] == priority and head[2] < sequence))
                ):
                    draining = None  # a heap event precedes the next entry
                break
            if draining is not None:
                if until is not None and time > until:
                    return None
                draining.sequence = sequence
                draining.action = actions[index]
                if index + 1 == len(sequences):
                    stack.pop()
                    draining.popped = True
                else:
                    entry[1] = index + 1
                self._live -= 1
                self._digest = (
                    (self._digest * _FNV_PRIME)
                    ^ hash(time)
                    ^ (priority * 0x9E3779B1)
                    ^ (sequence * 0x85EBCA6B)
                    ^ (draining.kind * 0xC2B2AE35)
                ) & _DIGEST_MASK
                return draining
        while heap:
            event = heap[0][3]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and event.time > until:
                return None
            heapq.heappop(heap)
            batch = event.batch
            if batch is not None:
                # Serve the first entry now; the rest drain on later calls.
                stack.append([event, 1])
                event.action = batch[1][0]
            else:
                event.popped = True
            self._live -= 1
            self._digest = (
                (self._digest * _FNV_PRIME)
                ^ hash(event.time)
                ^ (event.priority * 0x9E3779B1)
                ^ (event.sequence * 0x85EBCA6B)
                ^ (event.kind * 0xC2B2AE35)
            ) & _DIGEST_MASK
            return event
        return None

    def peek_time(self) -> Time | None:
        """Return the time of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        stack = self._draining
        if stack:
            draining = stack[-1][0]
            if not heap or draining.time <= heap[0][0]:
                return draining.time
            return heap[0][0]
        if not heap:
            return None
        return heap[0][0]


def _discarded(*args: object) -> None:  # pragma: no cover - never dispatched
    raise SchedulingError("a recycled event was executed; this is a queue bug")
