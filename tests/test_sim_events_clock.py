"""Tests for the clock, event queue, and RNG streams."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.sim.clock import Clock
from repro.sim.events import EventQueue
from repro.sim.rng import RngStreams


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_advances(self):
        clock = Clock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_cannot_move_backwards(self):
        clock = Clock(start=5)
        with pytest.raises(ValueError):
            clock.advance_to(4.9)

    def test_cannot_start_negative(self):
        with pytest.raises(ValueError):
            Clock(start=-1)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        order: list[str] = []
        queue.schedule(2.0, lambda: order.append("late"))
        queue.schedule(1.0, lambda: order.append("early"))
        while (entry := queue.pop_next()) is not None:
            entry[4]()
        assert order == ["early", "late"]

    def test_same_time_orders_by_priority_then_fifo(self):
        queue = EventQueue()
        order: list[str] = []
        queue.schedule(1.0, lambda: order.append("a"), priority=1)
        queue.schedule(1.0, lambda: order.append("b"), priority=0)
        queue.schedule(1.0, lambda: order.append("c"), priority=1)
        while (entry := queue.pop_next()) is not None:
            entry[4]()
        assert order == ["b", "a", "c"]

    def test_cancellation_skips_event(self):
        queue = EventQueue()
        fired: list[str] = []
        event = queue.schedule(1.0, lambda: fired.append("x"))
        queue.cancel(event)
        assert queue.is_empty()
        assert queue.pop_next() is None
        assert fired == []

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 1

    def test_cancelling_a_popped_handle_does_not_corrupt_the_count(self):
        queue = EventQueue()
        stale = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert queue.pop_next()[6] is stale
        queue.cancel(stale)
        assert len(queue) == 1
        assert queue.peek_time() == 2.0

    def test_event_args_are_passed_to_the_action(self):
        queue = EventQueue()
        received: list[tuple] = []
        queue.schedule(1.0, lambda *args: received.append(args), args=("m", 2))
        _, _, _, _, action, args, _ = queue.pop_next()
        action(*args)
        assert received == [("m", 2)]

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.schedule(4.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert queue.peek_time() == 2.0

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        first = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        queue.cancel(first)
        assert queue.peek_time() == 2.0

    def test_rejects_negative_time(self):
        queue = EventQueue()
        with pytest.raises(SchedulingError):
            queue.schedule(-1.0, lambda: None)

    def test_rejects_nan_time(self):
        """``nan < 0`` is false, so a ``<`` guard let NaN in — and the heap then
        served it *before* 0.5 and 1.0."""
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.schedule(0.5, lambda: None)
        with pytest.raises(SchedulingError):
            queue.schedule(float("nan"), lambda: None)
        with pytest.raises(SchedulingError):
            queue.schedule_all(
                [2.0, float("nan")], [print, print], (), priority=1, kind=1, not_before=0.0
            )
        # The copy scheduled before the bad one stands; nothing else got in.
        assert [queue.pop_next()[0] for _ in range(len(queue))] == [0.5, 1.0, 2.0]

    def test_infinite_time_is_legal_and_beyond_every_horizon(self):
        queue = EventQueue()
        queue.schedule(float("inf"), lambda: None)
        queue.schedule(3.0, lambda: None)
        assert queue.pop_next(until=1e300)[0] == 3.0
        assert queue.pop_next(until=1e300) is None
        assert len(queue) == 1

    def test_rejects_scheduling_in_the_past(self):
        queue = EventQueue()
        with pytest.raises(SchedulingError):
            queue.schedule(1.0, lambda: None, not_before=2.0)
        with pytest.raises(SchedulingError):
            queue.schedule_all([3.0, 1.0], [print, print], (), priority=1, kind=1, not_before=2.0)

    def test_len_tracks_live_events(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert len(queue) == 2
        queue.pop_next()
        assert len(queue) == 1


class TestRngStreams:
    def test_same_seed_same_draws(self):
        first = RngStreams(42).stream("latency")
        second = RngStreams(42).stream("latency")
        assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]

    def test_different_streams_are_independent(self):
        streams = RngStreams(42)
        a = streams.stream("a")
        b = streams.stream("b")
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]

    def test_stream_is_cached(self):
        streams = RngStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_spawn_derives_new_space(self):
        parent = RngStreams(7)
        child_one = parent.spawn("exp")
        child_two = parent.spawn("exp")
        assert child_one.master_seed == child_two.master_seed
        assert child_one.master_seed != parent.master_seed

    def test_master_seed_exposed(self):
        assert RngStreams(9).master_seed == 9
