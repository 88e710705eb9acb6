"""Tests for the pluggable link-model layer (repro.sim.links) and its wiring."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.identity import ProcessId
from repro.membership import grouped_identities, unique_identities
from repro.runtime import (
    Engine,
    cascading,
    composed,
    duplicating,
    execute_spec,
    jittered,
    lossy,
    scenario,
)
from repro.sim import (
    AsymmetricLinks,
    AsynchronousTiming,
    ComposedLinks,
    CrashSchedule,
    DuplicatingLinks,
    JitterLinks,
    LossyLinks,
    Partition,
    PartitionedLinks,
    ReliableLinks,
    Simulation,
    build_system,
)
from repro.sim.failures import CrashEvent
from repro.sim.process import ProcessProgram

from .conftest import pid


def rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


class TestLinkModelUnits:
    def test_reliable_is_the_identity(self):
        times = (1.0, 2.0)
        assert ReliableLinks().deliveries(pid(0), pid(1), 0.5, times, rng()) == times
        assert ReliableLinks().unreliable_until() == 0.0
        assert ReliableLinks().extra_delay_bound() == 0.0

    def test_lossy_drops_deterministically_for_a_fixed_seed(self):
        links = LossyLinks(loss=0.5)
        first = [links.deliveries(pid(0), pid(1), 1.0, (2.0,), rng(7)) for _ in range(1)]
        second = [links.deliveries(pid(0), pid(1), 1.0, (2.0,), rng(7)) for _ in range(1)]
        assert first == second

    def test_lossy_respects_its_window(self):
        links = LossyLinks(loss=1.0, start=10.0, end=20.0)
        assert links.deliveries(pid(0), pid(1), 5.0, (6.0,), rng()) == (6.0,)
        assert links.deliveries(pid(0), pid(1), 15.0, (16.0,), rng()) == ()
        assert links.deliveries(pid(0), pid(1), 25.0, (26.0,), rng()) == (26.0,)
        assert links.unreliable_until() == 20.0

    def test_lossy_without_end_is_unreliable_forever(self):
        assert LossyLinks(loss=0.1).unreliable_until() == math.inf
        assert LossyLinks(loss=0.0).unreliable_until() == 0.0

    def test_lossy_validates_probability_and_window(self):
        with pytest.raises(ConfigurationError):
            LossyLinks(loss=1.5)
        with pytest.raises(ConfigurationError):
            LossyLinks(loss=0.1, start=5.0, end=5.0)

    def test_duplicating_emits_extra_copies(self):
        links = DuplicatingLinks(probability=1.0, copies=3)
        out = links.deliveries(pid(0), pid(1), 0.0, (4.0,), rng())
        assert out == (4.0, 4.0, 4.0)

    def test_duplicating_spread_delays_the_extras(self):
        links = DuplicatingLinks(probability=1.0, copies=2, spread=1.0)
        out = links.deliveries(pid(0), pid(1), 0.0, (4.0,), rng(3))
        assert len(out) == 2
        assert out[0] == 4.0
        assert 4.0 <= out[1] <= 5.0
        assert links.extra_delay_bound() == 1.0

    def test_jitter_only_delays(self):
        links = JitterLinks(max_jitter=2.0)
        (when,) = links.deliveries(pid(0), pid(1), 0.0, (3.0,), rng(5))
        assert 3.0 <= when <= 5.0
        assert links.unreliable_until() == 0.0
        assert links.extra_delay_bound() == 2.0

    def test_asymmetric_penalises_one_direction(self):
        links = AsymmetricLinks(extra={"0->1": 5.0})
        assert links.deliveries(pid(0), pid(1), 0.0, (1.0,), rng()) == (6.0,)
        assert links.deliveries(pid(1), pid(0), 0.0, (1.0,), rng()) == (1.0,)
        assert links.unreliable_until() == 0.0
        assert links.extra_delay_bound() == 5.0

    def test_asymmetric_rejects_malformed_keys(self):
        with pytest.raises(ConfigurationError):
            AsymmetricLinks(extra={"zero to one": 1.0})
        with pytest.raises(ConfigurationError):
            AsymmetricLinks(extra={"0->1": -1.0})
        with pytest.raises(ConfigurationError):
            AsymmetricLinks(extra={"-1->2": 1.0})


class TestPartitions:
    def window(self, start=10.0, end=20.0):
        return Partition(start=start, end=end, groups=((0, 1), (2, 3)))

    def test_severs_across_blocks_during_the_window(self):
        cut = self.window()
        assert cut.severs(pid(0), pid(2), 15.0)
        assert cut.severs(pid(3), pid(1), 15.0)

    def test_same_block_and_unlisted_processes_keep_their_links(self):
        cut = self.window()
        assert not cut.severs(pid(0), pid(1), 15.0)
        assert not cut.severs(pid(0), pid(4), 15.0)  # 4 is in no block
        assert not cut.severs(pid(4), pid(2), 15.0)

    def test_heals_at_the_window_end(self):
        cut = self.window()
        assert not cut.severs(pid(0), pid(2), 9.9)
        assert not cut.severs(pid(0), pid(2), 20.0)
        assert cut.unreliable_until() == 20.0

    def test_permanent_partition_never_heals(self):
        forever = Partition(start=5.0, end=None, groups=((0,), (1,)))
        assert forever.severs(pid(0), pid(1), 1e9)
        assert forever.unreliable_until() == math.inf

    def test_rejects_overlapping_blocks_and_single_blocks(self):
        with pytest.raises(ConfigurationError):
            Partition(start=0.0, end=1.0, groups=((0, 1), (1, 2)))
        with pytest.raises(ConfigurationError):
            Partition(start=0.0, end=1.0, groups=((0, 1),))

    def test_partitioned_links_drop_crossing_copies(self):
        links = PartitionedLinks.from_windows(
            [{"start": 0.0, "end": 10.0, "groups": [[0], [1]]}]
        )
        assert links.deliveries(pid(0), pid(1), 5.0, (6.0,), rng()) == ()
        assert links.deliveries(pid(0), pid(1), 11.0, (12.0,), rng()) == (12.0,)


class TestComposition:
    def test_stages_apply_in_order_and_short_circuit_on_empty(self):
        links = ComposedLinks(
            (
                LossyLinks(loss=1.0),
                DuplicatingLinks(probability=1.0, copies=4),
            )
        )
        # Loss first: everything is dropped before duplication can happen.
        assert links.deliveries(pid(0), pid(1), 0.0, (1.0,), rng()) == ()

    def test_envelope_facts_combine(self):
        links = ComposedLinks(
            (
                LossyLinks(loss=0.2, end=30.0),
                JitterLinks(max_jitter=1.5),
                Partition(start=0.0, end=50.0, groups=((0,), (1,))),
            )
        )
        assert links.unreliable_until() == 50.0
        assert links.extra_delay_bound() == 1.5

    def test_empty_composition_is_reliable(self):
        links = ComposedLinks(())
        assert links.deliveries(pid(0), pid(1), 0.0, (1.0,), rng()) == (1.0,)
        assert links.unreliable_until() == 0.0


class Beacon(ProcessProgram):
    """Broadcast a beacon every time unit for 20 units."""

    def setup(self, ctx):
        def task():
            for _ in range(20):
                ctx.broadcast("BEACON")
                yield ctx.sleep(1.0)

        ctx.spawn(task, name="beacon")


def _noop_program_system(membership, *, links=None, schedule=None, seed=0):
    return build_system(
        membership=membership,
        timing=AsynchronousTiming(min_latency=0.1, max_latency=0.5),
        program_factory=lambda pid_, identity: Beacon(),
        crash_schedule=schedule or CrashSchedule.none(),
        links=links,
        seed=seed,
    )



def _delivered(trace) -> int:
    """Link-level copies delivered to live processes, over every kind."""
    return sum(trace.delivered_by_kind.values())


class TestNetworkIntegration:
    def test_lossy_network_delivers_fewer_copies(self):
        membership = unique_identities(4)
        reliable = Simulation(_noop_program_system(membership)).run(until=30.0)
        lossy_run = Simulation(
            _noop_program_system(membership, links=LossyLinks(loss=0.4))
        ).run(until=30.0)
        assert _delivered(reliable) == reliable.message_copies_sent
        assert _delivered(lossy_run) < lossy_run.message_copies_sent

    def test_duplicating_network_delivers_more_copies(self):
        membership = unique_identities(4)
        trace = Simulation(
            _noop_program_system(
                membership, links=DuplicatingLinks(probability=1.0, copies=2)
            )
        ).run(until=30.0)
        assert _delivered(trace) == 2 * trace.message_copies_sent

    def test_same_seed_same_deliveries_under_adversity(self):
        membership = grouped_identities([2, 2])
        links = ComposedLinks(
            (LossyLinks(loss=0.3), JitterLinks(max_jitter=1.0))
        )
        first = Simulation(_noop_program_system(membership, links=links, seed=5)).run(
            until=30.0
        )
        second = Simulation(_noop_program_system(membership, links=links, seed=5)).run(
            until=30.0
        )
        assert _delivered(first) == _delivered(second)
        assert first.delivered_by_kind == second.delivered_by_kind

    def test_permanent_partition_blocks_cross_traffic_only(self):
        membership = unique_identities(4)
        links = PartitionedLinks.from_windows(
            [{"start": 0.0, "end": None, "groups": [[0, 1], [2, 3]]}]
        )
        trace = Simulation(_noop_program_system(membership, links=links)).run(until=30.0)
        # Each broadcast reaches only the sender's own block: 2 of 4 copies.
        assert _delivered(trace) == trace.message_copies_sent // 2


class TestPartialBroadcastDeterminism:
    """Crash-while-broadcasting subsets stay deterministic per seed."""

    def _system(self, *, links=None, seed=3):
        membership = unique_identities(5)
        schedule = CrashSchedule(
            (CrashEvent(pid(4), time=4.0, partial_broadcast_fraction=0.5),)
        )
        return _noop_program_system(membership, links=links, schedule=schedule, seed=seed)

    def test_fixed_seed_fixed_recipient_subsets(self):
        first = Simulation(self._system()).run(until=30.0)
        second = Simulation(self._system()).run(until=30.0)
        assert first.message_copies_sent == second.message_copies_sent
        assert first.delivered_by_kind == second.delivered_by_kind

    def test_partial_broadcast_truncates_the_final_broadcast(self):
        trace = Simulation(self._system()).run(until=30.0)
        # The victim's broadcast at its crash instant reaches only 2 of 5.
        full = Simulation(
            _noop_program_system(
                unique_identities(5),
                schedule=CrashSchedule((CrashEvent(pid(4), time=4.0),)),
                seed=3,
            )
        ).run(until=30.0)
        assert trace.message_copies_sent < full.message_copies_sent

    def test_partial_broadcast_under_link_models_matches_across_executors(self):
        spec = (
            scenario("partial-bcast")
            .processes(5)
            .distinct_ids(2)
            .crashes(
                cascading(2, first_at=6.0, interval=4.0, partial_broadcast_fraction=0.5)
            )
            .network(composed(lossy(0.15, end=30.0), jittered(0.5, end=30.0)))
            .detectors("HOmega", "HSigma", stabilization=12.0)
            .consensus("homega_hsigma")
            .horizon(300.0)
            .seed(9)
            .build()
        )
        specs = [spec.with_seed(seed) for seed in range(4)]
        serial = Engine().run_many(specs)
        parallel = Engine(jobs=2).run_many(specs)
        assert serial == parallel
        assert all(record.metrics["safe"] for record in serial)

    def test_execute_spec_reproducible_under_duplication(self):
        spec = (
            scenario("dup")
            .processes(4)
            .distinct_ids(2)
            .network(duplicating(0.5, copies=2, spread=0.3, end=40.0))
            .adversarial()  # duplication is outside the consensus envelope
            .detectors("HOmega", "HSigma", stabilization=8.0)
            .consensus("homega_hsigma")
            .horizon(200.0)
            .seed(2)
            .build()
        )
        assert execute_spec(spec) == execute_spec(spec)
