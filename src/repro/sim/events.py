"""Event queue for the discrete-event engine.

An event *is* its heap entry — one tuple shape for everything the engine
dispatches::

    (time, priority, sequence, kind, action, args, handle)

Entries are ordered by ``(time, priority, sequence)``.  The sequence number is
unique, so ordering is total and deterministic (two events scheduled for the
same time and priority run in the order they were scheduled, which keeps runs
reproducible for a fixed seed) and a heap comparison never reaches ``kind``,
let alone the callable: every comparison happens at C speed.  Dispatching an
entry is ``action(*args)``.

``handle`` says who may cancel the entry:

* :meth:`EventQueue.schedule` returns an :class:`Event` — a one-field
  cancel-handle — and stores it in the entry.  Its holders are whoever called
  ``schedule``: a :class:`~repro.sim.process.ProcessRuntime` keeps the handle
  of each pending task resumption (a crash cancels them), and a detector may
  keep the handle of a wake-up it asked for.
* :meth:`EventQueue.schedule_all` — one call per ``broadcast(m)``, one entry
  per surviving message copy — stores ``None``.  Nobody ever holds a delivery
  (or a crash), so nothing is allocated, flagged or looked at for it besides
  the tuple itself.

The queue also maintains an always-on **determinism digest**: a 64-bit
running hash folded over ``(time, priority, sequence, kind)`` of every event
it dispatches.  Two runs with equal digests dispatched exactly the same
events in exactly the same order, which turns "the refactor did not change
behaviour" from an assertion into a checkable equality.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Iterable

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


class Event:
    """The cancel-handle of one scheduled entry.

    ``pending`` is true from ``schedule`` until the entry is popped or
    cancelled, whichever comes first.  Pass the handle to
    :meth:`EventQueue.cancel`.
    """

    __slots__ = ("pending",)

    def __init__(self) -> None:
        self.pending = True


class EventQueue:
    """A deterministic priority queue of ``(time, priority, sequence, kind,
    action, args, handle)`` entries; :meth:`pop_next` returns the entry itself.

    ``priority`` breaks ties at equal times: lower runs first.  Message
    deliveries use priority 1 and internal wake-ups priority 2 so that a
    process woken at time T sees every message delivered at T.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._sequence = 0
        # Cancelled entries are dropped lazily, when they reach the head of
        # the heap; until then they are counted here so ``len`` stays exact.
        self._cancelled = 0
        self._digest = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def is_empty(self) -> bool:
        """Return ``True`` when no live (non-cancelled) events remain."""
        return len(self._heap) == self._cancelled

    @property
    def digest(self) -> int:
        """The running determinism digest over every dispatched event.

        Every event popped for execution folds ``(time, priority, sequence,
        kind)`` into a 64-bit running hash.  Two runs with the same digest
        dispatched exactly the same events in exactly the same order, so the
        digest is a cheap, always-on witness that a refactor (or a parallel
        executor) left behaviour unchanged.  The action and its arguments are
        deliberately excluded.
        """
        return self._digest

    def schedule(
        self,
        time: Time,
        action: Callable[..., None],
        *,
        args: tuple = (),
        priority: int = 0,
        kind: int = KIND_INTERNAL,
        not_before: Time = 0.0,
    ) -> Event:
        """Schedule ``action(*args)`` to run at ``time`` and return its cancel-handle.

        ``not_before`` lets the caller assert that the event is not being
        scheduled in its own past (the engine passes the current clock value).
        """
        if not time >= not_before:
            raise _not_a_future_time(time, not_before)
        handle = Event()
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._heap, (float(time), priority, sequence, kind, action, args, handle))
        return handle

    def schedule_all(
        self,
        times: Iterable[Time | None],
        actions: Iterable[Callable[..., None]],
        args: tuple,
        *,
        priority: int,
        kind: int,
        not_before: Time,
    ) -> None:
        """Schedule ``action(*args)`` at ``time`` for each ``(time, action)`` pair.

        This is one send: the pairs are a broadcast's copies, in receiver
        order, all sharing ``args``.  A ``None`` time is a copy that was lost
        and takes no sequence number; every other pair gets the next one, so
        the call is indistinguishable from one :meth:`schedule` per surviving
        copy — except that the entries carry no handle and cannot be cancelled.
        Times are floats no earlier than ``not_before`` (the send time).
        """
        heap = self._heap
        sequence = self._sequence
        try:
            for time, action in zip(times, actions):
                if time is None:
                    continue
                if not time >= not_before:
                    raise _not_a_future_time(time, not_before)
                heappush(heap, (time, priority, sequence, kind, action, args, None))
                sequence += 1
        finally:
            self._sequence = sequence

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` and keep the live-event count accurate.

        This is the single safe cancellation entry point: it flips the
        handle's flag and adjusts the queue's accounting in one call, and is
        idempotent (cancelling twice, or cancelling an already popped event's
        stale handle, does not corrupt the count).
        """
        if event.pending:
            event.pending = False
            self._cancelled += 1

    def pop_next(self, until: Time | None = None) -> tuple | None:
        """Remove and return the next live entry, or ``None`` when empty.

        With ``until`` set, an entry later than ``until`` is left in place and
        ``None`` is returned — the engine's horizon check without a separate
        ``peek_time`` round-trip per event.
        """
        heap = self._heap
        while heap:
            time, priority, sequence, kind, _, _, handle = entry = heap[0]
            if handle is not None and not handle.pending:
                heappop(heap)  # cancelled
                self._cancelled -= 1
                continue
            if until is not None and time > until:
                return None
            if handle is not None:
                handle.pending = False
            heappop(heap)
            self._digest = (
                (self._digest * _FNV_PRIME)
                ^ hash(time)
                ^ (priority * 0x9E3779B1)
                ^ (sequence * 0x85EBCA6B)
                ^ (kind * 0xC2B2AE35)
            ) & _DIGEST_MASK
            return entry
        return None

    def clear(self) -> None:
        """Drop every pending entry; the digest and the sequence counter stay.

        The entries hold the run's callables (bound ``deliver`` / ``_resume``
        methods, detector wake-ups), which is what keeps a finished run's
        object graph cyclic: :meth:`Simulation.close` empties the queue so
        reference counting can free the run.
        """
        self._heap = []
        self._cancelled = 0

    def peek_time(self) -> Time | None:
        """Return the time of the next live event without removing it."""
        heap = self._heap
        while heap:
            handle = heap[0][6]
            if handle is None or handle.pending:
                return heap[0][0]
            heappop(heap)  # cancelled
            self._cancelled -= 1
        return None


def _not_a_future_time(time: object, not_before: Time) -> SchedulingError:
    # Callers test ``not time >= not_before`` rather than ``time < not_before``:
    # NaN compares false both ways, and a NaN key would sort ahead of every
    # real time.  ``inf`` stays legal ("beyond every horizon").
    if time < 0:
        return SchedulingError(f"cannot schedule an event at negative time {time}")
    return SchedulingError(
        f"cannot schedule an event at {time}, which is not a time at or after "
        f"the current time {not_before}"
    )
