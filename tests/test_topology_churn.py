"""The monitoring-topology layer and membership churn.

Covers the topology primitives (ring successor arithmetic at the seam,
degenerate k ≥ n, seeded gossip fanout), the spec/builder integration
(default-omission so every pre-topology canonical hash is preserved — the
same regression idiom as the kv and backend sections), the sparse heartbeat
modes end to end (including the nasty case where a victim and *all* of its
ring monitors crash together), the churn schedule validation, and the
dynamic-membership program (join via a crashed introducer, leave, down/up
recovery).
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.membership import random_identities
from repro.runtime import (
    Engine,
    ScenarioSpec,
    ScenarioValidationError,
    TopologySpec,
    asynchronous,
    crashes_at,
    full_mesh,
    gossip,
    ring,
    scenario,
)
from repro.sim.failures import ChurnEvent, ChurnSchedule
from repro.topology import FullMesh, Gossip, Ring, ring_successors
from repro.workloads.churn import churn_schedule, churn_spec


# ----------------------------------------------------------------------
# Topology primitives
# ----------------------------------------------------------------------
class TestRingSuccessors:
    def test_wraparound_at_the_ring_seam(self):
        # The highest index's successors wrap to the lowest ones.
        assert ring_successors(9, [0, 2, 5, 9], 2) == (0, 2)

    def test_interior_successors_in_ring_order(self):
        assert ring_successors(2, [0, 2, 5, 9], 2) == (5, 9)

    def test_k_at_least_n_degenerates_to_full_mesh(self):
        members = [0, 1, 2, 3, 4]
        mesh = FullMesh().monitor_targets(1, members)
        assert set(ring_successors(1, members, 10)) == set(mesh)
        assert set(ring_successors(1, members, 4)) == set(mesh)

    def test_index_need_not_be_a_member(self):
        # A process whose view no longer contains itself still gets targets.
        assert ring_successors(3, [0, 5, 9], 2) == (5, 9)

    def test_self_is_never_a_target(self):
        for k in (1, 2, 5):
            assert 4 not in ring_successors(4, [0, 4, 7], k)


class TestGossipTargets:
    def test_fanout_sample_is_seeded_and_sorted(self):
        topo = Gossip(fanout=3)
        members = list(range(10))
        first = topo.gossip_targets(0, members, random.Random(42))
        second = topo.gossip_targets(0, members, random.Random(42))
        assert first == second == tuple(sorted(first))
        assert len(first) == 3 and 0 not in first

    def test_fanout_covering_all_others_skips_sampling(self):
        topo = Gossip(fanout=9)
        members = [0, 1, 2]
        assert topo.gossip_targets(0, members, random.Random(0)) == (1, 2)

    def test_monitor_targets_watch_everyone(self):
        # Gossip staleness is judged against every peer, not just the fanout.
        assert Gossip(fanout=2).monitor_targets(1, [0, 1, 2, 3]) == (0, 2, 3)


class TestTopologyConstruction:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            TopologySpec.from_dict({"kind": "torus"})

    def test_bad_parameters_are_rejected(self):
        with pytest.raises(ConfigurationError):
            Ring(successors=0)
        with pytest.raises(ConfigurationError):
            Gossip(fanout=0)

    def test_expected_copies_orders(self):
        assert FullMesh().expected_copies_per_round(100) == 100 * 99
        assert Ring(successors=3).expected_copies_per_round(100) == 300
        assert Gossip(fanout=3).expected_copies_per_round(100) == 300


# ----------------------------------------------------------------------
# Spec integration: the full-mesh default preserves every pre-PR hash
# ----------------------------------------------------------------------
def _hb_spec(topology=None, n: int = 5) -> ScenarioSpec:
    build = (
        scenario("topo-spec-test")
        .processes(n)
        .unique_ids()
        .timing(asynchronous(min_latency=0.01, max_latency=0.2))
        .crashes(crashes_at({n - 1: 6.0}))
        .program("heartbeat", hb_interval=1.0, hb_timeout=6.0)
        .horizon(20.0)
        .seed(3)
    )
    if topology is not None:
        build = build.topology(topology)
        build = build.check("topo_detection")
    else:
        build = build.check("hb_detection")
    return build.build()


class TestTopologySpecDefaults:
    def test_default_spec_omits_the_topology_section(self):
        payload = _hb_spec().to_dict()
        assert "topology" not in payload
        # …so canonical hashes of pre-topology specs are preserved, and the
        # round-trip still defaults correctly:
        assert ScenarioSpec.from_dict(payload).topology == TopologySpec()

    def test_explicit_full_mesh_hashes_like_the_default(self):
        implicit = _hb_spec()
        explicit = implicit.__class__.from_dict(implicit.to_dict())
        mesh = (
            scenario("topo-spec-test")
            .processes(5)
            .unique_ids()
            .timing(asynchronous(min_latency=0.01, max_latency=0.2))
            .crashes(crashes_at({4: 6.0}))
            .program("heartbeat", hb_interval=1.0, hb_timeout=6.0)
            .topology(full_mesh())
            .check("hb_detection")
            .horizon(20.0)
            .seed(3)
            .build()
        )
        assert mesh.canonical_hash() == implicit.canonical_hash() == explicit.canonical_hash()

    def test_sparse_spec_round_trips_with_hash(self):
        spec = _hb_spec(ring(successors=2))
        payload = spec.to_dict()
        assert payload["topology"] == {"kind": "ring", "params": {"successors": 2}}
        restored = ScenarioSpec.from_dict(payload)
        assert restored.canonical_hash() == spec.canonical_hash()
        assert restored.topology.build() == Ring(successors=2)

    def test_explicit_full_mesh_runs_bit_identically(self):
        default_record = Engine().run(_hb_spec())
        mesh_spec = ScenarioSpec.from_dict(
            {**_hb_spec().to_dict(), "topology": {"kind": "full_mesh", "params": {}}}
        )
        mesh_record = Engine().run(mesh_spec)
        assert mesh_record.digest == default_record.digest

    def test_topology_spec_validates_eagerly(self):
        with pytest.raises(ConfigurationError):
            TopologySpec("ring", {"successors": 0})
        with pytest.raises(ConfigurationError):
            TopologySpec("torus")


class TestBuilderValidation:
    def _sparse(self, **kwargs):
        return (
            scenario("invalid")
            .processes(5)
            .unique_ids()
            .topology(ring(successors=2))
        )

    def test_sparse_topology_requires_topology_aware_program(self):
        with pytest.raises(ScenarioValidationError, match="topology"):
            self._sparse().program("ohp_polling").horizon(10.0).build()

    def test_sparse_topology_rejects_consensus(self):
        with pytest.raises(ScenarioValidationError):
            (
                scenario("invalid")
                .processes(5)
                .distinct_ids(2)
                .topology(ring(successors=2))
                .detectors("HOmega", "HSigma", stabilization=10.0)
                .consensus("homega_majority")
                .horizon(10.0)
                .build()
            )

    def test_sparse_topology_is_sim_only(self):
        with pytest.raises(ScenarioValidationError, match="sim-only"):
            (
                scenario("invalid")
                .processes(3)
                .unique_ids()
                .timing(asynchronous(min_latency=0.005, max_latency=0.05))
                .topology(ring(successors=1))
                .program("heartbeat")
                .backend("real")
                .horizon(10.0)
                .build()
            )

    def test_membership_program_requires_a_sparse_topology(self):
        from repro.algorithms.swim import ClusterMembershipProgram

        with pytest.raises(ValueError, match="sparse"):
            ClusterMembershipProgram(hb_interval=1.0, hb_timeout=6.0)


# ----------------------------------------------------------------------
# Sparse heartbeat end to end
# ----------------------------------------------------------------------
def _detection_spec(topology, crash_indices, *, n=7, hb_timeout=6.0, seed=1):
    horizon = 10.0 + hb_timeout + 8.0
    return (
        scenario("sparse-detect")
        .processes(n)
        .unique_ids()
        .timing(asynchronous(min_latency=0.01, max_latency=0.2))
        .crashes(crashes_at({index: 10.0 for index in crash_indices}))
        .program("heartbeat", hb_interval=1.0, hb_timeout=hb_timeout)
        .topology(topology)
        .check("topo_detection")
        .horizon(horizon)
        .seed(seed)
        .build()
    )


class TestSparseDetection:
    def test_ring_detects_a_crash_without_false_suspicions(self):
        metrics = Engine().run(_detection_spec(ring(successors=2), [3])).metrics
        assert metrics["topo_detection_ok"]
        assert metrics["topo_detection_false_suspicions"] == 0
        assert metrics["topo_detection_detected"] == 1

    def test_ring_repair_covers_a_victim_whose_monitors_all_crashed(self):
        # Indices 1 and 2 are exactly the processes watching index 3 with
        # k=2 — crash all three at once.  Detection of 3 must come from a
        # survivor that adopted it as successor after declaring 1 and 2.
        metrics = Engine().run(
            _detection_spec(ring(successors=2), [1, 2, 3], hb_timeout=4.0)
        ).metrics
        assert metrics["topo_detection_ok"], metrics
        assert metrics["topo_detection_detected"] == 3
        assert metrics["topo_detection_missed"] == 0

    def test_gossip_detects_a_crash_without_false_suspicions(self):
        metrics = Engine().run(
            _detection_spec(gossip(fanout=2), [4], hb_timeout=8.0)
        ).metrics
        assert metrics["topo_detection_ok"]
        assert metrics["topo_detection_false_suspicions"] == 0

    def test_ring_runs_are_deterministic(self):
        spec = _detection_spec(ring(successors=2), [3])
        assert Engine().run(spec).digest == Engine().run(spec).digest

    def test_ring_load_at_n100_is_within_10pct_of_full_mesh(self):
        # The acceptance bar of the scaling work: Ring(successors=3) at
        # n=100 spends ≤ 10% of the full-mesh per-process budget.  The mesh
        # side is the analytic per-round count ((n−1) ping copies broadcast
        # + (n−1)² ACK copies per process) — validated empirically at small
        # n by E12 — because actually running the n=100 mesh is the cost
        # this layer exists to avoid.
        n = 100
        metrics = Engine().run(
            _detection_spec(ring(successors=3), [n - 1], n=n)
        ).metrics
        assert metrics["topo_detection_ok"]
        copies = metrics["topo_detection_copies_sent"]
        rounds = metrics["topo_detection_end_time"] / 1.0
        per_proc_round = copies / n / rounds
        mesh_per_proc_round = (n - 1) + (n - 1) ** 2
        assert per_proc_round <= 0.10 * mesh_per_proc_round


# ----------------------------------------------------------------------
# Churn schedules and ground truth
# ----------------------------------------------------------------------
class TestChurnSchedule:
    def test_join_must_be_the_first_event(self):
        with pytest.raises(ConfigurationError, match="join once, as its first"):
            ChurnSchedule(
                (
                    ChurnEvent(1, "down", 1.0),
                    ChurnEvent(1, "up", 2.0),
                    ChurnEvent(1, "join", 5.0),
                )
            )

    def test_down_twice_without_recovery_is_rejected(self):
        with pytest.raises(ConfigurationError, match="down twice"):
            ChurnSchedule((ChurnEvent(2, "down", 1.0), ChurnEvent(2, "down", 3.0)))

    def test_up_without_down_is_rejected(self):
        with pytest.raises(ConfigurationError, match="recovers"):
            ChurnSchedule((ChurnEvent(2, "up", 1.0),))

    def test_nothing_after_leave(self):
        with pytest.raises(ConfigurationError, match="after its leave"):
            ChurnSchedule((ChurnEvent(2, "leave", 1.0), ChurnEvent(2, "down", 3.0)))

    def test_round_trips_through_json_shape(self):
        original = ChurnSchedule(
            (
                ChurnEvent(5, "join", 4.0),
                ChurnEvent(1, "down", 2.0),
                ChurnEvent(1, "up", 6.0),
            )
        )
        assert ChurnSchedule.from_dict(original.to_dict()) == original
        assert original.joiners() == frozenset({5})

    def test_generator_gives_disjoint_roles_and_spares_the_introducer(self):
        schedule = churn_schedule(12, joins=2, leaves=2, flaps=2, horizon=60.0, seed=9)
        roles: dict[int, list[str]] = {}
        for event in schedule.events:
            roles.setdefault(event.index, []).append(event.kind)
        assert 0 not in roles
        assert sorted(roles) == [1, 2, 3, 4, 10, 11]
        assert schedule == churn_schedule(
            12, joins=2, leaves=2, flaps=2, horizon=60.0, seed=9
        )

    def test_generator_rejects_roles_that_do_not_fit(self):
        with pytest.raises(ValueError, match="do not fit"):
            churn_schedule(4, joins=2, leaves=2, flaps=1)


class TestRandomIdentities:
    def test_seed_and_equivalent_rng_agree(self):
        by_seed = random_identities(6, domain_size=3, seed=11)
        by_rng = random_identities(6, domain_size=3, rng=random.Random(11))
        assert by_seed.identities == by_rng.identities

    def test_exactly_one_randomness_source_is_required(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            random_identities(4, domain_size=2)
        with pytest.raises(ConfigurationError, match="exactly one"):
            random_identities(4, domain_size=2, seed=1, rng=random.Random(1))


# ----------------------------------------------------------------------
# The membership program under churn
# ----------------------------------------------------------------------
class TestMembershipChurn:
    def test_full_churn_scenario_passes_the_check(self):
        spec = churn_spec(
            12,
            topology="ring",
            degree=3,
            joins=2,
            leaves=1,
            flaps=1,
            crashes={5: 20.0},
            hb_interval=1.0,
            hb_timeout=6.0,
            horizon=60.0,
            seed=7,
        )
        metrics = Engine().run(spec).metrics
        assert metrics["membership_churn_ok"], metrics
        assert metrics["membership_churn_joins_completed"] == 2
        assert metrics["membership_churn_leaves_announced"] == 1
        assert metrics["membership_churn_recoveries"] == 1
        assert metrics["membership_churn_removals_detected"] == 1
        assert metrics["membership_churn_false_suspicions"] == 0

    def test_join_succeeds_when_the_introducer_is_crashed(self):
        # The introducer (index 0) dies long before the join; the joiner
        # must rotate to another founder and still be welcomed.
        spec = churn_spec(
            8,
            topology="ring",
            degree=2,
            joins=1,
            crashes={0: 2.0},
            hb_interval=1.0,
            hb_timeout=6.0,
            horizon=60.0,
            seed=3,
        )
        metrics = Engine().run(spec).metrics
        assert metrics["membership_churn_ok"], metrics
        assert metrics["membership_churn_joins_completed"] == 1
        assert metrics["membership_churn_joins_failed"] == 0

    def test_gossip_churn_scenario_passes(self):
        spec = churn_spec(
            12,
            topology="gossip",
            degree=3,
            joins=1,
            leaves=1,
            flaps=1,
            crashes={5: 20.0},
            hb_interval=1.0,
            hb_timeout=8.0,
            horizon=70.0,
            seed=11,
        )
        metrics = Engine().run(spec).metrics
        assert metrics["membership_churn_ok"], metrics
        assert metrics["membership_churn_removals_detected"] == 1

    def test_churn_runs_are_deterministic(self):
        spec = churn_spec(10, topology="ring", degree=2, joins=1, flaps=1, seed=5)
        assert Engine().run(spec).digest == Engine().run(spec).digest


# ----------------------------------------------------------------------
# E12 registration
# ----------------------------------------------------------------------
def test_e12_is_registered_and_deterministic():
    from repro.experiments import ALL_EXPERIMENTS
    from repro.runtime.registry import EXPERIMENTS

    assert "E12" in ALL_EXPERIMENTS
    assert EXPERIMENTS.resolve("E12") is ALL_EXPERIMENTS["E12"]
