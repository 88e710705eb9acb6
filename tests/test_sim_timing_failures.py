"""Tests for timing models, crash schedules, and failure patterns."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.identity import IdentityMultiset, ProcessId
from repro.membership import Membership, unique_identities
from repro.sim.failures import CrashEvent, CrashSchedule, FailurePattern
from repro.sim.timing import (
    AsynchronousTiming,
    PartiallySynchronousTiming,
    SynchronousTiming,
)


def p(index: int) -> ProcessId:
    return ProcessId(index)


class TestAsynchronousTiming:
    def test_delivery_within_bounds(self):
        timing = AsynchronousTiming(min_latency=1.0, max_latency=2.0)
        rng = random.Random(0)
        for _ in range(50):
            delivered = timing.delivery_time(p(0), p(1), sent_at=10.0, rng=rng)
            assert 11.0 <= delivered <= 12.0

    def test_never_loses_messages(self):
        timing = AsynchronousTiming()
        rng = random.Random(1)
        assert all(
            timing.delivery_time(p(0), p(1), 0.0, rng) is not None for _ in range(100)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AsynchronousTiming(min_latency=5.0, max_latency=1.0)
        with pytest.raises(ConfigurationError):
            AsynchronousTiming(min_step=2.0, max_step=1.0)

    def test_step_delay_zero_by_default(self):
        timing = AsynchronousTiming()
        assert timing.step_delay(p(0), 0.0, random.Random(0)) == 0.0

    def test_step_delay_bounded_when_configured(self):
        timing = AsynchronousTiming(min_step=0.1, max_step=0.5)
        rng = random.Random(2)
        for _ in range(20):
            assert 0.1 <= timing.step_delay(p(0), 0.0, rng) <= 0.5


class TestPartiallySynchronousTiming:
    def test_after_gst_delivery_within_delta(self):
        timing = PartiallySynchronousTiming(gst=10.0, delta=2.0, min_latency=0.5)
        rng = random.Random(0)
        for _ in range(100):
            delivered = timing.delivery_time(p(0), p(1), sent_at=15.0, rng=rng)
            assert delivered is not None
            assert 15.5 <= delivered <= 17.0

    def test_after_gst_never_lost(self):
        timing = PartiallySynchronousTiming(gst=10.0, delta=2.0, pre_gst_loss=1.0)
        rng = random.Random(0)
        assert all(
            timing.delivery_time(p(0), p(1), 10.0, rng) is not None for _ in range(50)
        )

    def test_before_gst_may_be_lost(self):
        timing = PartiallySynchronousTiming(gst=100.0, delta=1.0, pre_gst_loss=1.0)
        rng = random.Random(0)
        assert timing.delivery_time(p(0), p(1), 5.0, rng) is None

    def test_before_gst_delay_is_finite(self):
        timing = PartiallySynchronousTiming(
            gst=100.0, delta=1.0, pre_gst_loss=0.0, pre_gst_max_latency=50.0
        )
        rng = random.Random(3)
        for _ in range(50):
            delivered = timing.delivery_time(p(0), p(1), sent_at=5.0, rng=rng)
            assert delivered is not None
            assert delivered <= 55.0

    @pytest.mark.parametrize("sent_at", [0.0, 5.0, 19.99, 20.0, 31.5])
    @pytest.mark.parametrize("loss", [0.0, 0.3, 1.0])
    def test_delivery_times_draws_like_per_copy_calls(self, sent_at, loss):
        # The amortised broadcast draw must consume the stream exactly as one
        # delivery_time per receiver does, before GST (loss, then latency)
        # and after it (latency only).
        timing = PartiallySynchronousTiming(gst=20.0, delta=2.0, pre_gst_loss=loss)
        receivers = [p(index) for index in range(9)]
        batched, per_copy = random.Random(11), random.Random(11)
        for _ in range(4):
            assert timing.delivery_times(p(0), receivers, sent_at, batched) == [
                timing.delivery_time(p(0), receiver, sent_at, per_copy)
                for receiver in receivers
            ]
        assert batched.getstate() == per_copy.getstate()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartiallySynchronousTiming(gst=-1)
        with pytest.raises(ConfigurationError):
            PartiallySynchronousTiming(delta=0)
        with pytest.raises(ConfigurationError):
            PartiallySynchronousTiming(pre_gst_loss=1.5)
        with pytest.raises(ConfigurationError):
            PartiallySynchronousTiming(delta=1.0, min_latency=2.0)
        with pytest.raises(ConfigurationError):
            PartiallySynchronousTiming(delta=5.0, pre_gst_max_latency=1.0)

    def test_describe_mentions_gst(self):
        assert "GST" in PartiallySynchronousTiming(gst=7).describe()


class TestSynchronousTiming:
    def test_step_indexing(self):
        timing = SynchronousTiming(step=2.0)
        assert timing.step_index(0.0) == 0
        assert timing.step_index(1.9) == 0
        assert timing.step_index(2.0) == 1
        assert timing.next_step_start(0.5) == 2.0
        assert timing.next_step_start(2.0) == 4.0

    def test_delivery_within_sending_step(self):
        timing = SynchronousTiming(step=1.0, delivery_fraction=0.5)
        rng = random.Random(0)
        delivered = timing.delivery_time(p(0), p(1), sent_at=3.1, rng=rng)
        assert 3.1 <= delivered < 4.0

    def test_late_send_still_delivered_before_boundary(self):
        timing = SynchronousTiming(step=1.0, delivery_fraction=0.5)
        delivered = timing.delivery_time(p(0), p(1), sent_at=3.9, rng=random.Random(0))
        assert 3.9 <= delivered < 4.0

    def test_flags_synchronous_steps(self):
        assert SynchronousTiming().synchronous_steps
        assert not AsynchronousTiming().synchronous_steps

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SynchronousTiming(step=0)
        with pytest.raises(ConfigurationError):
            SynchronousTiming(delivery_fraction=1.0)


class TestNonFiniteParameters:
    """The range checks only test ``<``, which NaN passes; ``inf`` passed the
    latency checks outright.  Either makes delivery times the queue cannot order."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_asynchronous_rejects_it(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            AsynchronousTiming(min_latency=0.1, max_latency=bad)
        with pytest.raises(ConfigurationError, match="finite"):
            AsynchronousTiming(max_step=bad)
        with pytest.raises(ConfigurationError, match="finite"):
            AsynchronousTiming(min_latency=float("nan"), max_latency=float("nan"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field", ["gst", "delta", "min_latency", "pre_gst_max_latency", "pre_gst_loss", "max_step"]
    )
    def test_partially_synchronous_rejects_it(self, field, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            PartiallySynchronousTiming(**{field: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_synchronous_rejects_it(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            SynchronousTiming(step=bad)
        with pytest.raises(ConfigurationError, match="finite"):
            SynchronousTiming(delivery_fraction=float("nan"))

    def test_a_spec_carrying_it_fails_at_build_not_mid_run(self):
        from repro.runtime import asynchronous, partial_sync, scenario, synchronous

        def build(timing, program="heartbeat"):
            return scenario("bad-timing").processes(3).timing(timing).program(program).build()

        build(asynchronous(min_latency=0.1, max_latency=1.0))  # the shape itself is fine
        with pytest.raises(ConfigurationError, match="finite"):
            build(asynchronous(min_latency=float("nan"), max_latency=float("nan")))
        with pytest.raises(ConfigurationError, match="finite"):
            build(partial_sync(gst=float("inf"), delta=1.0), program="ohp_polling")
        with pytest.raises(ConfigurationError, match="finite"):
            build(synchronous(step=float("nan")), program="hsigma_sync")


class TestCrashSchedule:
    def test_none_has_no_faulty(self):
        assert CrashSchedule.none().faulty == frozenset()

    def test_at_times(self):
        schedule = CrashSchedule.at_times({p(1): 5.0, p(2): 3.0})
        assert schedule.faulty == {p(1), p(2)}
        assert schedule.crash_time(p(1)) == 5.0
        assert schedule.crash_time(p(0)) is None
        # Events are sorted by time.
        assert [event.process for event in schedule.events] == [p(2), p(1)]

    def test_duplicate_process_rejected(self):
        with pytest.raises(ConfigurationError):
            CrashSchedule((CrashEvent(p(0), 1.0), CrashEvent(p(0), 2.0)))

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            CrashEvent(p(0), -1.0)

    def test_partial_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            CrashEvent(p(0), 1.0, partial_broadcast_fraction=1.5)

    def test_crash_processes_staggered(self):
        schedule = CrashSchedule.crash_processes([p(2), p(0)], time=10.0, stagger=1.0)
        assert schedule.crash_time(p(0)) == 10.0
        assert schedule.crash_time(p(2)) == 11.0

    def test_validate_against_unknown_process(self):
        membership = unique_identities(2)
        schedule = CrashSchedule.at_times({p(5): 1.0})
        with pytest.raises(ConfigurationError):
            schedule.validate_against(membership)

    def test_validate_against_all_crashing(self):
        membership = unique_identities(2)
        schedule = CrashSchedule.at_times({p(0): 1.0, p(1): 2.0})
        with pytest.raises(ConfigurationError):
            schedule.validate_against(membership)


class TestFailurePattern:
    def test_correct_and_faulty(self):
        membership = unique_identities(4)
        pattern = FailurePattern(membership, CrashSchedule.at_times({p(1): 5.0}))
        assert pattern.faulty == {p(1)}
        assert pattern.correct == {p(0), p(2), p(3)}
        assert pattern.max_faulty == 1

    def test_alive_at(self):
        membership = unique_identities(3)
        pattern = FailurePattern(membership, CrashSchedule.at_times({p(2): 5.0}))
        assert pattern.is_alive_at(p(2), 4.9)
        assert not pattern.is_alive_at(p(2), 5.0)
        assert pattern.alive_at(10.0) == {p(0), p(1)}

    def test_correct_processes_always_alive(self):
        membership = unique_identities(3)
        pattern = FailurePattern(membership, CrashSchedule.none())
        assert pattern.alive_at(1e9) == set(membership.processes)

    def test_last_crash_time(self):
        membership = unique_identities(4)
        pattern = FailurePattern(
            membership, CrashSchedule.at_times({p(0): 3.0, p(1): 7.0})
        )
        assert pattern.last_crash_time() == 7.0
        assert FailurePattern(membership, CrashSchedule.none()).last_crash_time() == 0.0

    def test_correct_identity_multiset(self, paper_example_membership):
        pattern = FailurePattern(
            paper_example_membership, CrashSchedule.at_times({p(1): 2.0})
        )
        assert pattern.correct_identity_multiset() == IdentityMultiset(["A", "B"])

    def test_rejects_schedule_killing_everyone(self):
        membership = unique_identities(2)
        with pytest.raises(ConfigurationError):
            FailurePattern(membership, CrashSchedule.at_times({p(0): 1.0, p(1): 1.0}))


@given(
    n=st.integers(min_value=2, max_value=8),
    crash_count=st.integers(min_value=0, max_value=6),
    at=st.floats(min_value=0, max_value=100, allow_nan=False),
)
def test_failure_pattern_partitions_processes(n, crash_count, at):
    crash_count = min(crash_count, n - 1)
    membership = unique_identities(n)
    schedule = CrashSchedule.at_times(
        {ProcessId(index): 1.0 + index for index in range(crash_count)}
    )
    pattern = FailurePattern(membership, schedule)
    assert pattern.correct | pattern.faulty == set(membership.processes)
    assert pattern.correct & pattern.faulty == frozenset()
    assert pattern.correct <= pattern.alive_at(at)
