"""Property/edge tests for the EventQueue hot path and the determinism digest.

Live-count invariants under adversarial interleavings, a model-based search
over queue histories, the always-on determinism digest (serial vs parallel
equality, and that it *can* differ), eight small runs pinned before the
heap-tuple rewrite, and four more whose resumptions charge a drawn step delay.
"""

from __future__ import annotations

import bisect
import inspect
import math
import random
from dataclasses import fields
from functools import partial

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

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
from repro.sim.events import KIND_CRASH, KIND_DELIVERY, KIND_DETECTOR, KIND_RESUME, Event
from repro.sim.system import System


def _drain_order(queue: EventQueue) -> list:
    fired = []
    while (entry := queue.pop_next()) is not None:
        _, _, sequence, _, action, args, _ = entry
        action(*args)
        fired.append(sequence)
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
        _drain_order(queue)
        assert fired == ["b"]
        assert queue.is_empty()

    def test_pop_then_cancel_stale_handle_is_harmless(self):
        queue = EventQueue()
        stale = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        assert queue.pop_next()[6] is stale
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
                    entry = queue.pop_next()
                    if entry is not None:
                        handle = entry[6]
                        expected_live -= 1
                        if handle in live_handles:
                            live_handles.remove(handle)
                        queue.cancel(handle)  # stale-handle cancel is a no-op
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

    def test_a_handle_is_only_its_pending_flag(self):
        assert Event.__slots__ == ("pending",)
        queue = EventQueue()
        handle = queue.schedule(1.0, lambda: None)
        assert handle.pending
        queue.cancel(handle)
        assert not handle.pending

    def test_the_queue_has_one_spelling_of_a_run(self):
        """No option switches the queue, the system or its builder to a
        second, labelled spelling of the same events."""
        assert "label" not in inspect.signature(EventQueue.schedule).parameters
        assert list(inspect.signature(EventQueue).parameters) == []
        assert "debug" not in inspect.signature(build_system).parameters
        assert "debug" not in {field.name for field in fields(System)}


# ----------------------------------------------------------------------
# Search, not replay: random queue histories against a reference model
# ----------------------------------------------------------------------
_TIMES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 2.5, 7.0]),  # ties on purpose
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
)
_PRIORITIES = st.integers(0, 3)
_KINDS = st.integers(0, 4)


class QueueAgainstModel(RuleBasedStateMachine):
    """Interleaves ``schedule`` / ``schedule_all`` / ``cancel`` / ``pop_next`` /
    ``peek_time``.  The model is a sorted list of the live ``(time, priority,
    sequence)`` keys; dispatch order, the ``until`` horizon, ``peek_time``,
    ``len`` and the digest must agree with it after every step."""

    def __init__(self):
        super().__init__()
        self.queue = EventQueue()
        self.live: list[tuple] = []  # sorted (time, priority, sequence)
        self.kind_of: dict[int, int] = {}
        self.handle_of: dict[int, object] = {}  # every handle ever issued
        self.sequences = 0
        self.fired: list[int] = []
        self.digest = 0

    def _enter(self, time, priority, kind):
        sequence, self.sequences = self.sequences, self.sequences + 1
        bisect.insort(self.live, (float(time), priority, sequence))
        self.kind_of[sequence] = kind
        return sequence

    @rule(time=_TIMES, priority=_PRIORITIES, kind=_KINDS)
    def schedule(self, time, priority, kind):
        sequence = self._enter(time, priority, kind)
        self.handle_of[sequence] = self.queue.schedule(
            time, self.fired.append, args=(sequence,), priority=priority, kind=kind
        )

    @rule(
        times=st.lists(st.one_of(st.none(), _TIMES), max_size=6),
        priority=_PRIORITIES,
        kind=_KINDS,
    )
    def send(self, times, priority, kind):
        """One ``schedule_all``: a lost copy (``None``) takes no sequence number."""
        actions = [
            None if time is None else partial(self.fired.append, self._enter(time, priority, kind))
            for time in times
        ]
        self.queue.schedule_all(times, actions, (), priority=priority, kind=kind, not_before=0.0)

    @precondition(lambda self: self.handle_of)
    @rule(choice=st.integers(0, 10**6))
    def cancel(self, choice):
        """Any handle ever issued: live, already popped, already cancelled."""
        sequence = sorted(self.handle_of)[choice % len(self.handle_of)]
        self.queue.cancel(self.handle_of[sequence])
        self.live = [key for key in self.live if key[2] != sequence]

    @rule(until=st.one_of(st.none(), _TIMES))
    def pop(self, until):
        entry = self.queue.pop_next(until)
        if not self.live or (until is not None and self.live[0][0] > until):
            assert entry is None
            return
        time, priority, sequence = self.live.pop(0)
        kind = self.kind_of[sequence]
        assert entry[:4] == (time, priority, sequence, kind)
        assert entry[6] is self.handle_of.get(sequence)  # None for a copy
        entry[4](*entry[5])
        assert self.fired[-1] == sequence
        self.digest = _reference_digest([(time, priority, sequence, kind)], self.digest)

    @rule()
    def peek(self):
        assert self.queue.peek_time() == (self.live[0][0] if self.live else None)

    @invariant()
    def counts_and_digest_agree(self):
        assert len(self.queue) == len(self.live)
        assert self.queue.is_empty() == (not self.live)
        assert self.queue.digest == self.digest


TestQueueAgainstModel = QueueAgainstModel.TestCase
# Half the loaded profile's examples (``tier1``: 50, ``search``: 2,500) of 20
# steps each: hypothesis's own per-step cost is what keeps tier-1 near a second.
TestQueueAgainstModel.settings = settings(
    max_examples=max(1, settings.default.max_examples // 2), stateful_step_count=20
)


class _Idle(ProcessProgram):
    def setup(self, ctx):
        pass


def _digest_of(events, action=lambda *args: None, args=()) -> str:
    """``Simulation.digest`` after dispatching ``events`` — ``(time, priority,
    kind)`` triples, scheduled in list order — on an otherwise idle system."""
    simulation = Simulation(
        build_system(
            membership=grouped_identities([1]),
            timing=AsynchronousTiming(),
            program_factory=lambda pid, identity: _Idle(),
        )
    )
    for time, priority, kind in events:
        simulation.queue.schedule(time, action, args=args, priority=priority, kind=kind)
    simulation.run(until=10.0)
    assert simulation.events_processed == len(events)
    return simulation.digest


class TestTheDigestCanFail:
    """"Digests unmoved" is only evidence if a moved run moves the digest."""

    BASELINE = [
        (1.0, 1, KIND_DELIVERY),
        (2.0, 1, KIND_DELIVERY),
        (2.0, 1, KIND_DETECTOR),
        (2.0, 2, KIND_RESUME),
        (3.0, 1, KIND_DELIVERY),
    ]

    def _changed(self, index, event):
        return self.BASELINE[:index] + [event] + self.BASELINE[index + 1 :]

    def test_it_is_a_function_of_the_dispatched_events(self):
        assert _digest_of(self.BASELINE) == _digest_of(list(self.BASELINE))

    def test_swapping_two_same_time_same_priority_events_of_different_kinds(self):
        swapped = list(self.BASELINE)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        assert _digest_of(swapped) != _digest_of(self.BASELINE)

    def test_changing_one_events_kind(self):
        assert _digest_of(self._changed(4, (3.0, 1, KIND_RESUME))) != _digest_of(self.BASELINE)

    def test_moving_one_delivery_by_one_ulp(self):
        for index in (0, 4):
            time, priority, kind = self.BASELINE[index]
            for moved in (math.nextafter(time, math.inf), math.nextafter(time, 0.0)):
                assert _digest_of(self._changed(index, (moved, priority, kind))) != _digest_of(
                    self.BASELINE
                )

    def test_dropping_one_delivery(self):
        for index in (0, 1, 4):
            assert _digest_of(self.BASELINE[:index] + self.BASELINE[index + 1 :]) != _digest_of(
                self.BASELINE
            )

    def test_what_it_does_not_see(self):
        # The fold covers (time, priority, sequence, kind) only: *which*
        # callable ran and with *what* arguments is invisible to it, so a
        # delivery handed to the wrong process, or a different message at the
        # same instant, leaves the digest alone.  Tables, JSONL rows and the
        # pinned counters are what catch those.
        heard: list = []
        assert _digest_of(self.BASELINE, heard.append, ("other",)) == _digest_of(self.BASELINE)
        assert heard == ["other"] * len(self.BASELINE)


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
        """HSS, where every copy of a broadcast lands on one instant (once a
        batched heap entry, hence the name), must be deterministic too."""
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
    # Every resumption draws its step delay from the process's own stream.
    "async-steps": (
        AsynchronousTiming(min_latency=0.1, max_latency=6.0, min_step=0.05, max_step=0.4),
        None,
    ),
    "partial-sync-steps": (
        PartiallySynchronousTiming(
            gst=6.0, delta=1.0, pre_gst_max_latency=8.0, pre_gst_loss=0.3, max_step=0.3
        ),
        None,
    ),
}


def _pinned_run(case: str, *, crash: bool) -> tuple:
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
    )
    simulation = Simulation(system)
    trace = simulation.run(until=9.5)
    return (
        simulation.digest,
        simulation.events_processed,
        dict(trace.delivered_by_kind),
        trace.message_copies_sent,
        sum(trace.delivered_by_kind.values()),
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

#: The step-charging cases, recorded at 508f4b7, where every process's stream
#: was made when the run was built; it is now made on the first step draw.
_STEP_PINS = {
    ("async-steps", False): ("57a5663237cefc86", 326, {"PING": 144, "ECHO": 117, "DONE": 15}, 455, 276, 184),
    ("async-steps", True): ("2ab089deb1725325", 273, {"PING": 105, "ECHO": 75, "DONE": 7}, 360, 187, 136),
    ("partial-sync-steps", False): ("a6c810d6b35d26b0", 414, {"PING": 148, "ECHO": 187, "DONE": 25}, 465, 360, 55),
    ("partial-sync-steps", True): ("afbacf330f4891e1", 316, {"PING": 99, "ECHO": 100, "DONE": 16}, 350, 215, 36),
}


class TestPinnedRuns:
    @pytest.mark.parametrize("case, crash", sorted(_PINS))
    def test_run_matches_the_values_recorded_at_ec33f68(self, case, crash):
        assert _pinned_run(case, crash=crash) == _PINS[(case, crash)]

    @pytest.mark.parametrize("case, crash", sorted(_STEP_PINS))
    def test_a_step_charging_run_matches_the_values_recorded_at_508f4b7(self, case, crash):
        assert _pinned_run(case, crash=crash) == _STEP_PINS[(case, crash)]

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
        assert trace.delivered_by_kind == {"HELLO": 1}
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


def _reference_digest(dispatched, digest: int = 0) -> int:
    """The digest fold, restated: FNV-style over ``(time, priority, sequence,
    kind)`` of every dispatched event, in dispatch order."""
    for time, priority, sequence, kind in dispatched:
        digest = (
            (digest * 1099511628211)
            ^ hash(time)
            ^ (priority * 0x9E3779B1)
            ^ (sequence * 0x85EBCA6B)
            ^ (kind * 0xC2B2AE35)
        ) & 0xFFFFFFFFFFFFFFFF
    return digest
