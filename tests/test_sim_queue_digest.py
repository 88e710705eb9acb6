"""Property/edge tests for the EventQueue hot path and the determinism digest.

Covers the PR-3 hot-path overhaul: batched same-tick scheduling, event
recycling, live-count invariants under adversarial interleavings, and the
always-on determinism digest (including serial vs parallel equality).
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SchedulingError
from repro.membership import grouped_identities
from repro.runtime import Engine, RunRecord, minority, scenario
from repro.sim import (
    AsynchronousTiming,
    ComposedLinks,
    CrashEvent,
    CrashSchedule,
    EventQueue,
    JitterLinks,
    LossyLinks,
    PartiallySynchronousTiming,
    ProcessProgram,
    Simulation,
    SynchronousTiming,
    build_system,
)
from repro.sim.events import KIND_CRASH, KIND_DELIVERY, KIND_RESUME


def _drain_order(queue: EventQueue) -> list:
    fired = []
    while (event := queue.pop_next()) is not None:
        event.run()
        fired.append(event.sequence)
    return fired


def _spec(seed: int = 0):
    return (
        scenario("digest-test")
        .processes(4)
        .distinct_ids(2)
        .crashes(minority(at=6.0, count=1))
        .detectors("HOmega", "HSigma", stabilization=10.0)
        .consensus("homega_majority")
        .horizon(300.0)
        .seed(seed)
        .build()
    )


class TestQueueEdgeCases:
    def test_cancel_then_pop_skips_and_counts(self):
        queue = EventQueue()
        fired: list[str] = []
        first = queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(2.0, lambda: fired.append("b"))
        queue.cancel(first)
        assert len(queue) == 1
        while (event := queue.pop_next()) is not None:
            event.run()
        assert fired == ["b"]
        assert queue.is_empty()

    def test_pop_then_cancel_stale_handle_is_harmless(self):
        queue = EventQueue()
        stale = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert queue.pop_next() is stale
        queue.cancel(stale)
        queue.cancel(stale)
        assert len(queue) == 1
        assert queue.peek_time() == 2.0

    def test_peek_time_skips_runs_of_cancelled_heads(self):
        queue = EventQueue()
        doomed = [queue.schedule(float(t), lambda: None) for t in (1, 2, 3)]
        queue.schedule(4.0, lambda: None)
        for event in doomed:
            queue.cancel(event)
        assert queue.peek_time() == 4.0
        assert len(queue) == 1

    def test_len_invariant_under_randomized_interleavings(self):
        rng = random.Random(1234)
        for _ in range(30):
            queue = EventQueue()
            live_handles = []
            expected_live = 0
            for _ in range(200):
                roll = rng.random()
                if roll < 0.5:
                    handle = queue.schedule(rng.uniform(0.0, 50.0), lambda: None)
                    live_handles.append(handle)
                    expected_live += 1
                elif roll < 0.75 and live_handles:
                    victim = live_handles.pop(rng.randrange(len(live_handles)))
                    queue.cancel(victim)
                    queue.cancel(victim)  # idempotent
                    expected_live -= 1
                else:
                    event = queue.pop_next()
                    if event is not None:
                        expected_live -= 1
                        if event in live_handles:
                            live_handles.remove(event)
                        queue.cancel(event)  # stale-handle cancel is a no-op
                assert len(queue) == expected_live
            # Draining the rest must fire exactly the remaining live events.
            assert len(_drain_order(queue)) == expected_live
            assert queue.is_empty()

    def test_pop_until_leaves_later_events_in_place(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.schedule(5.0, lambda: None)
        assert queue.pop_next(until=2.0) is not None
        assert queue.pop_next(until=2.0) is None
        assert len(queue) == 1
        assert queue.peek_time() == 5.0


class TestBatchScheduling:
    def test_batch_matches_individual_scheduling_exactly(self):
        """One batch must be indistinguishable from n schedule() calls —
        same dispatch order, same sequences, same digest."""
        fired_a: list[str] = []
        individual = EventQueue()
        for name in ("x", "y", "z"):
            individual.schedule(2.0, fired_a.append, args=(name,), priority=1, kind=KIND_DELIVERY)
        order_a = _drain_order(individual)

        fired_b: list[str] = []
        batched = EventQueue()
        batched.schedule_batch(
            2.0,
            [lambda n="x": fired_b.append(n), lambda n="y": fired_b.append(n),
             lambda n="z": fired_b.append(n)],
            priority=1,
            kind=KIND_DELIVERY,
        )
        order_b = _drain_order(batched)

        assert fired_a == fired_b == ["x", "y", "z"]
        assert order_a == order_b
        assert individual.digest == batched.digest

    def test_batch_counts_as_n_live_events(self):
        queue = EventQueue()
        queue.schedule_batch(1.0, [lambda: None] * 4)
        assert len(queue) == 4
        queue.pop_next()
        assert len(queue) == 3
        assert queue.peek_time() == 1.0
        _drain_order(queue)
        assert queue.is_empty()

    def test_heap_event_interleaves_into_a_draining_batch(self):
        """An event scheduled mid-drain with a smaller sequence-free key
        (lower priority number at the same time) must run before the
        remaining batch entries."""
        queue = EventQueue()
        fired: list[str] = []
        queue.schedule_batch(
            1.0, [lambda: fired.append("b1"), lambda: fired.append("b2")], priority=1
        )
        first = queue.pop_next()
        first.run()
        # Scheduled after the batch, but priority 0 beats priority 1 at t=1.
        queue.schedule(1.0, lambda: fired.append("urgent"), priority=0)
        while (event := queue.pop_next()) is not None:
            event.run()
        assert fired == ["b1", "urgent", "b2"]

    def test_two_batches_drain_in_global_order(self):
        queue = EventQueue()
        fired: list[str] = []
        queue.schedule_batch(
            5.0, [lambda: fired.append("late1"), lambda: fired.append("late2")]
        )
        served = queue.pop_next()
        served.run()  # late1; the late batch is now draining
        queue.schedule_batch(
            5.0, [lambda: fired.append("tail1"), lambda: fired.append("tail2")]
        )
        while (event := queue.pop_next()) is not None:
            event.run()
        assert fired == ["late1", "late2", "tail1", "tail2"]

    def test_batch_handles_cannot_be_cancelled(self):
        queue = EventQueue()
        handle = queue.schedule_batch(1.0, [lambda: None, lambda: None])
        with pytest.raises(SchedulingError):
            queue.cancel(handle)

    def test_empty_batch_is_rejected(self):
        queue = EventQueue()
        with pytest.raises(SchedulingError):
            queue.schedule_batch(1.0, [])

    def test_single_action_batch_degenerates_to_schedule(self):
        queue = EventQueue()
        handle = queue.schedule_batch(1.0, [lambda: None])
        assert handle.batch is None
        queue.cancel(handle)  # plain events stay cancellable
        assert queue.is_empty()


class TestRecycling:
    def test_recycled_event_is_reused_without_changing_behaviour(self):
        queue = EventQueue()
        fired: list[int] = []
        event = queue.schedule(1.0, fired.append, args=(1,), kind=KIND_DELIVERY)
        popped = queue.pop_next()
        assert popped is event
        popped.run()
        queue.recycle(popped)
        reused = queue.schedule(2.0, fired.append, args=(2,), kind=KIND_DELIVERY)
        assert reused is event  # same object, fresh identity
        assert reused.cancelled is False and reused.popped is False
        queue.pop_next().run()
        assert fired == [1, 2]

    def test_live_or_cancelled_events_are_not_pooled(self):
        queue = EventQueue()
        live = queue.schedule(1.0, lambda: None)
        queue.recycle(live)  # not popped: refused
        cancelled = queue.schedule(2.0, lambda: None)
        queue.cancel(cancelled)
        queue.recycle(cancelled)  # cancelled: refused
        fresh = queue.schedule(3.0, lambda: None)
        assert fresh is not live and fresh is not cancelled


class TestDeterminismDigest:
    def test_same_seed_same_digest(self):
        records = [Engine().run(_spec(seed=7)) for _ in range(2)]
        assert records[0].digest == records[1].digest != ""
        assert records[0].metrics == records[1].metrics

    def test_different_seeds_different_digests(self):
        assert Engine().run(_spec(seed=1)).digest != Engine().run(_spec(seed=2)).digest

    def test_serial_and_parallel_runs_have_equal_digests(self):
        specs = [_spec(seed=s) for s in range(4)]
        serial = Engine().run_many(specs)
        with Engine(jobs=2) as pooled:
            parallel = pooled.run_many(specs)
        assert [r.digest for r in serial] == [r.digest for r in parallel]
        assert serial == parallel

    def test_digest_survives_record_round_trip(self):
        record = Engine().run(_spec(seed=3))
        assert RunRecord.from_dict(record.to_dict()) == record
        assert record.to_dict()["digest"] == record.digest

    def test_synchronous_batched_broadcast_is_digest_stable(self):
        """The HSS batched-broadcast fast path must be deterministic too."""
        from repro.detectors import CLASSES, DetectorProbeProgram

        def run_once():
            membership = grouped_identities([2, 2])
            system = build_system(
                membership=membership,
                timing=SynchronousTiming(step=1.0),
                program_factory=lambda pid, identity: DetectorProbeProgram(
                    CLASSES["HSigma"].probes(), period=1.0
                ),
                detectors={"HSigma": lambda s: CLASSES["HSigma"].oracle(s, stabilization_time=5.0)},
                seed=11,
            )
            simulation = Simulation(system)
            simulation.run(until=20.0)
            return simulation.digest

        assert run_once() == run_once()


# ----------------------------------------------------------------------
# Pinned runs: one small system per timing/link discipline, recorded at
# ec33f68 (before the heap-tuple rewrite of sim/events.py) and never
# re-recorded.  What a run dispatched, counted and left queued must not move.
# ----------------------------------------------------------------------
class _Chatter(ProcessProgram):
    """Eight PINGs a time unit apart; every third PING heard is answered with
    an ECHO from the handler; a second task blocks until five ECHOs arrived
    (so deliveries re-evaluate a ``wait_until``) and then says DONE."""

    def __init__(self, lock_step: bool) -> None:
        self._lock_step = lock_step

    def setup(self, ctx):
        heard = {"PING": 0, "ECHO": 0}

        def on_ping(message):
            heard["PING"] += 1
            if heard["PING"] % 3 == 0:
                ctx.broadcast("ECHO")

        def on_echo(message):
            heard["ECHO"] += 1

        def chatter():
            for _ in range(8):
                ctx.broadcast("PING")
                if self._lock_step:
                    yield ctx.next_synchronous_step()
                else:
                    yield ctx.sleep(1.0)

        def waiter():
            yield ctx.wait_until(lambda: heard["ECHO"] >= 5)
            ctx.broadcast("DONE")

        ctx.on("PING", on_ping)
        ctx.on("ECHO", on_echo)
        ctx.spawn(chatter, name="chatter")
        ctx.spawn(waiter, name="waiter")


_PIN_CASES = {
    "async": (AsynchronousTiming(min_latency=0.1, max_latency=6.0, max_step=0.0), None),
    "partial-sync": (
        PartiallySynchronousTiming(
            gst=6.0, delta=1.0, pre_gst_max_latency=8.0, pre_gst_loss=0.3
        ),
        None,
    ),
    "hss": (SynchronousTiming(step=1.0), None),
    "lossy-jitter": (
        AsynchronousTiming(min_latency=0.1, max_latency=2.0),
        ComposedLinks((LossyLinks(loss=0.2), JitterLinks(max_jitter=0.5))),
    ),
}


def _pinned_run(case: str, *, crash: bool, debug: bool = False) -> tuple:
    timing, links = _PIN_CASES[case]
    membership = grouped_identities([2, 2, 1])
    schedule = None
    if crash:
        # p1 crashes at the instant of its fourth PING: half the copies go out.
        schedule = CrashSchedule(
            (CrashEvent(membership.processes[1], 3.0, partial_broadcast_fraction=0.5),)
        )
    system = build_system(
        membership=membership,
        timing=timing,
        program_factory=lambda pid, identity: _Chatter(
            lock_step=isinstance(timing, SynchronousTiming)
        ),
        crash_schedule=schedule,
        links=links,
        seed=5,
        debug=debug,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=9.5)
    return (
        simulation.digest,
        simulation.events_processed,
        trace.deliveries_by_kind(),
        trace.message_copies_sent,
        trace.message_copies_delivered,
        len(simulation.queue),
    )


_PINS = {
    ("async", False): ("718a054965ba389f", 388, {"PING": 163, "ECHO": 152, "DONE": 18}, 490, 333, 157),
    ("async", True): ("f11d70f6577e1fc2", 329, {"PING": 128, "ECHO": 93, "DONE": 14}, 397, 235, 118),
    ("partial-sync", False): ("5bc6e85eebd43034", 406, {"PING": 138, "ECHO": 188, "DONE": 25}, 440, 351, 34),
    ("partial-sync", True): ("10346a79e4acfaf5", 311, {"PING": 96, "ECHO": 95, "DONE": 16}, 347, 207, 28),
    ("hss", False): ("dd52627954a68619", 605, {"PING": 200, "ECHO": 325, "DONE": 25}, 550, 550, 0),
    ("hss", True): ("ea5a094af4687799", 508, {"PING": 157, "ECHO": 229, "DONE": 25}, 457, 411, 0),
    ("lossy-jitter", False): ("cd1257d433514c81", 433, {"PING": 160, "ECHO": 200, "DONE": 18}, 485, 378, 14),
    ("lossy-jitter", True): ("f784a16cc6ebc009", 364, {"PING": 127, "ECHO": 129, "DONE": 12}, 402, 268, 10),
}


class TestPinnedRuns:
    @pytest.mark.parametrize("debug", [False, True], ids=["default", "debug-labels"])
    @pytest.mark.parametrize("case, crash", sorted(_PINS))
    def test_run_matches_the_values_recorded_at_ec33f68(self, case, crash, debug):
        """``debug=True`` takes the labelled spelling of the send loop; it
        must dispatch, count and leave queued exactly what the default does."""
        assert _pinned_run(case, crash=crash, debug=debug) == _PINS[(case, crash)]

    def test_pins_exercise_what_they_claim(self):
        for (case, crash), (_, _, by_kind, sent, delivered, queued) in _PINS.items():
            assert set(by_kind) >= {"PING", "ECHO"}, case
            if case in ("partial-sync", "lossy-jitter"):
                assert delivered + queued < sent, case  # copies really were lost
        # Still-queued copies at the horizon: the final ``len(queue)`` is not vacuous.
        assert _PINS[("async", False)][5] > 0
        # The partial broadcast sent fewer copies than the clean one.
        assert _PINS[("hss", True)][3] < _PINS[("hss", False)][3]

    def test_copy_to_a_crashed_process_is_dispatched_but_not_counted(self):
        """p0 broadcasts at t=0 (latency exactly 1); p1 crashes at t=0.5.  Both
        copies are dispatched — they are in ``events_processed`` and in the
        digest — but only p0's is counted as delivered."""
        membership = grouped_identities([1, 1])

        class _OneShot(ProcessProgram):
            def __init__(self, speaks: bool) -> None:
                self._speaks = speaks

            def setup(self, ctx):
                def speak():
                    ctx.broadcast("HELLO")
                    return
                    yield

                if self._speaks:
                    ctx.spawn(speak, name="speak")

        system = build_system(
            membership=membership,
            timing=AsynchronousTiming(min_latency=1.0, max_latency=1.0),
            program_factory=lambda pid, identity: _OneShot(speaks=pid.index == 0),
            crash_schedule=CrashSchedule.at_times({membership.processes[1]: 0.5}),
            seed=0,
        )
        simulation = Simulation(system)
        trace = simulation.run(until=5.0)
        assert trace.message_copies_sent == 2
        assert trace.message_copies_delivered == 1
        assert trace.deliveries_by_kind() == {"HELLO": 1}
        assert simulation.events_processed == 4
        assert len(simulation.queue) == 0
        # The crash is scheduled first (sequence 0), p0's task next, then the copies.
        dispatched = [
            (0.0, 2, 1, KIND_RESUME),
            (0.5, 5, 0, KIND_CRASH),
            (1.0, 1, 2, KIND_DELIVERY),
            (1.0, 1, 3, KIND_DELIVERY),
        ]
        assert simulation.digest == f"{_reference_digest(dispatched):016x}"


def _reference_digest(dispatched) -> int:
    """The digest fold, restated: FNV-style over ``(time, priority, sequence,
    kind)`` of every dispatched event, in dispatch order."""
    digest = 0
    for time, priority, sequence, kind in dispatched:
        digest = (
            (digest * 1099511628211)
            ^ hash(time)
            ^ (priority * 0x9E3779B1)
            ^ (sequence * 0x85EBCA6B)
            ^ (kind * 0xC2B2AE35)
        ) & 0xFFFFFFFFFFFFFFFF
    return digest
