"""Tests for the declarative runtime layer: specs, builder, validation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.membership import Membership
from repro.runtime import (
    CrashSpec,
    DetectorSpec,
    KVSpec,
    MembershipSpec,
    NetworkSpec,
    ScenarioSpec,
    ScenarioValidationError,
    TimingSpec,
    asymmetric,
    asynchronous,
    cascading,
    composed,
    crashes_at,
    duplicating,
    full_mesh,
    jittered,
    leaders,
    lossy,
    minority,
    no_crashes,
    partial_sync,
    partitioned,
    reliable,
    ring,
    scenario,
    synchronous,
)
from repro.sim.links import (
    AsymmetricLinks,
    ComposedLinks,
    LossyLinks,
    PartitionedLinks,
    ReliableLinks,
)
from repro.sim.timing import (
    AsynchronousTiming,
    PartiallySynchronousTiming,
    SynchronousTiming,
)


def figure9_spec(seed: int = 7) -> ScenarioSpec:
    return (
        scenario("figure9")
        .processes(8)
        .homonyms([3, 3, 2])
        .timing(partial_sync(gst=30.0, delta=1.0, pre_gst_loss=0.0, pre_gst_max_latency=100.0))
        .crashes(cascading(5, first_at=6.0, interval=4.0))
        .detectors("HOmega", "HSigma", stabilization=20.0)
        .consensus("homega_hsigma")
        .horizon(700.0)
        .seed(seed)
        .build()
    )


class TestSpecRoundTrip:
    def test_dict_round_trip_is_exact(self):
        spec = figure9_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_exact(self):
        spec = figure9_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_json_round_trip_with_explicit_crash_times(self):
        spec = (
            scenario("explicit")
            .identities(["A", "A", "B"])
            .crashes(crashes_at({1: 10.0}))
            .detectors("HOmega", stabilization=15.0)
            .consensus("homega_majority")
            .build()
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_with_seed_changes_only_the_seed(self):
        spec = figure9_spec(seed=1)
        reseeded = spec.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.with_seed(1) == spec

    def test_network_section_round_trips_through_dict_json(self):
        spec = (
            scenario("net")
            .processes(5)
            .distinct_ids(2)
            .network(
                composed(
                    lossy(0.2, end=40.0),
                    jittered(1.0, end=40.0),
                    partitioned({"start": 5.0, "end": 30.0, "groups": [[0, 1], [2, 3, 4]]}),
                )
            )
            .detectors("HOmega", "HSigma", stabilization=10.0)
            .consensus("homega_hsigma")
            .build()
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.to_dict()["network"]["kind"] == "compose"

    def test_adversarial_flag_round_trips(self):
        spec = (
            scenario("adv")
            .processes(4)
            .distinct_ids(2)
            .network(lossy(0.5))
            .adversarial()
            .detectors("HOmega", "HSigma", stabilization=10.0)
            .consensus("homega_hsigma")
            .build()
        )
        assert spec.adversarial
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_payload_without_network_defaults_to_reliable(self):
        """Pre-link-model JSONL records must still load."""
        spec = figure9_spec()
        payload = spec.to_dict()
        del payload["network"]
        del payload["adversarial"]
        loaded = ScenarioSpec.from_dict(payload)
        assert loaded.network == NetworkSpec()
        assert loaded.network.is_reliable
        assert not loaded.adversarial

    def test_stacked_program_spec_round_trips(self):
        spec = (
            scenario("stacked")
            .processes(5)
            .distinct_ids(3)
            .timing(partial_sync(gst=10.0, delta=1.0, pre_gst_loss=0.0, pre_gst_max_latency=40.0))
            .crashes(minority(at=6.0, count=1))
            .program("ohp_polling", detector_name="HOmega", record_outputs=False)
            .consensus("homega_majority")
            .build()
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec


_PINNED_BASE = ScenarioSpec(
    membership=MembershipSpec("distinct_ids", n=4, distinct=2),
    crashes=minority(at=6.0, count=1),
    detectors=(
        DetectorSpec("HOmega", {"stabilization_time": 10.0, "noise_period": 5.0}),
        DetectorSpec("HSigma", {"stabilization_time": 10.0}),
    ),
    consensus="homega_majority",
    horizon=300.0,
    name="pinned",
)

#: Literal ``canonical_hash()`` values, computed at commit 65b085c (before the
#: spec sections were table-driven).  They are run-cache and fabric-plan keys:
#: a change here orphans every stored run, so it must be deliberate.
_PINNED_HASHES = {
    "bare": (
        _PINNED_BASE,
        "c5cf701b71f0ed51dd16ddba40a792401e67bd15da66e8bdf0b297f0d39ddd64",
    ),
    "lossy": (
        replace(_PINNED_BASE, network=lossy(0.2, end=40.0)),
        "0a3c8e9b1a3854662c7f8559e155877f16ae9ff632baf172ac76244050bf7e02",
    ),
    "kv": (
        replace(_PINNED_BASE, kv=KVSpec()),
        "f363459e75a196998c381c56da05aebae810bbada0f40439a4e42f7ad5e5d31a",
    ),
    "real_backend": (
        replace(_PINNED_BASE, backend="real", backend_params={"time_scale": 0.02}),
        "9f69aeac8dcbf3f16eb6a5b396cfc1294c9ab8162b88fc593d3f10ebe075ca06",
    ),
    "real_backend_no_params": (
        replace(_PINNED_BASE, backend="real"),
        "5832bbc3bfc9ae03eec543d17b45c8b7e9c2a2da350571ab498d3a71fdb48edc",
    ),
    "ring": (
        replace(_PINNED_BASE, topology=ring(3)),
        "77a90a21b892280686d86d54ca1908798aa2a8348bfa60cb7ebcb0f8596db211",
    ),
    "explicit_full_mesh": (  # must equal "bare"
        replace(_PINNED_BASE, topology=full_mesh()),
        "c5cf701b71f0ed51dd16ddba40a792401e67bd15da66e8bdf0b297f0d39ddd64",
    ),
}


class TestPinnedCanonicalHashes:
    @pytest.mark.parametrize("name", _PINNED_HASHES)
    def test_hash_is_frozen_and_the_spec_round_trips(self, name):
        spec, expected = _PINNED_HASHES[name]
        assert spec.canonical_hash() == expected
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec


class TestSpecMaterialisation:
    def test_membership_kinds_build_the_right_shapes(self):
        assert MembershipSpec("groups", groups=(3, 2, 1)).build().homonymy_degree == 3
        assert MembershipSpec("unique", n=4).build().is_uniquely_identified
        assert MembershipSpec("anonymous", n=4).build().is_anonymous
        assert MembershipSpec("distinct_ids", n=6, distinct=2).build().size == 6
        explicit = MembershipSpec("explicit", identities=("A", "A", "B")).build()
        assert explicit == Membership.of(["A", "A", "B"])

    def test_membership_size_without_building(self):
        assert MembershipSpec("groups", groups=(3, 3, 2)).size == 8
        assert MembershipSpec("explicit", identities=("A", "B")).size == 2
        assert MembershipSpec("unique", n=5).size == 5

    def test_unknown_membership_kind_raises(self):
        with pytest.raises(ConfigurationError):
            MembershipSpec("nope", n=3).build()

    def test_timing_specs_build_the_right_models(self):
        assert isinstance(asynchronous().build(), AsynchronousTiming)
        ps = partial_sync(gst=5.0, delta=0.5).build()
        assert isinstance(ps, PartiallySynchronousTiming) and ps.gst == 5.0
        assert isinstance(synchronous(step=2.0).build(), SynchronousTiming)

    def test_unknown_timing_kind_raises(self):
        with pytest.raises(ConfigurationError):
            TimingSpec("warp")

    def test_crash_specs_build_against_the_membership(self):
        membership = MembershipSpec("unique", n=5).build()
        assert len(no_crashes().build(membership).faulty) == 0
        assert len(minority().build(membership).faulty) == 2
        assert len(cascading(7).build(membership).faulty) == 4  # capped at n-1
        assert len(leaders(1).build(membership).faulty) == 1
        assert len(crashes_at({0: 3.0, 2: 5.0}).build(membership).faulty) == 2

    def test_network_specs_build_the_right_link_models(self):
        assert isinstance(reliable().build(), ReliableLinks)
        lossy_model = lossy(0.3, end=25.0).build()
        assert isinstance(lossy_model, LossyLinks) and lossy_model.end == 25.0
        assert isinstance(
            partitioned({"start": 1.0, "end": 2.0, "groups": [[0], [1]]}).build(),
            PartitionedLinks,
        )
        assert isinstance(asymmetric({"0->1": 2.0}).build(), AsymmetricLinks)
        stack = composed(lossy(0.1, end=5.0), jittered(0.5)).build()
        assert isinstance(stack, ComposedLinks) and len(stack.stages) == 2

    def test_unknown_link_kind_raises(self):
        with pytest.raises(ConfigurationError, match="link model"):
            NetworkSpec("wormhole").build()


class TestBuilderValidation:
    def test_workload_is_required(self):
        with pytest.raises(ScenarioValidationError, match="workload"):
            scenario().processes(3).unique_ids().build()

    def test_membership_is_required(self):
        with pytest.raises(ScenarioValidationError, match="membership"):
            scenario().consensus("homega_hsigma").build()

    def test_majority_algorithm_rejects_half_crashes(self):
        with pytest.raises(ScenarioValidationError, match="majority"):
            (
                scenario()
                .processes(6)
                .distinct_ids(3)
                .crashes(cascading(3))
                .detectors("HOmega", stabilization=20.0)
                .consensus("homega_majority")
                .build()
            )

    def test_hsigma_algorithm_accepts_any_failures(self):
        spec = (
            scenario()
            .processes(6)
            .distinct_ids(3)
            .crashes(cascading(5))
            .detectors("HOmega", "HSigma", stabilization=20.0)
            .consensus("homega_hsigma")
            .build()
        )
        assert len(spec.crashes.build(spec.membership.build()).faulty) == 5

    def test_missing_required_detector_is_rejected(self):
        with pytest.raises(ScenarioValidationError, match="HSigma"):
            (
                scenario()
                .processes(4)
                .distinct_ids(2)
                .detectors("HOmega", stabilization=20.0)
                .consensus("homega_hsigma")
                .build()
            )

    def test_stacked_program_publishes_the_detector(self):
        spec = (
            scenario()
            .processes(5)
            .distinct_ids(3)
            .timing(partial_sync(gst=10.0, delta=1.0))
            .program("ohp_polling", detector_name="HOmega")
            .consensus("homega_majority")
            .build()
        )
        assert spec.program == "ohp_polling"

    def test_classical_baseline_requires_unique_identifiers(self):
        with pytest.raises(ScenarioValidationError, match="unique"):
            (
                scenario()
                .processes(5)
                .distinct_ids(3)
                .detectors("Omega", stabilization=20.0)
                .consensus("classical_omega")
                .build()
            )

    def test_anonymous_baseline_requires_anonymous_membership(self):
        with pytest.raises(ScenarioValidationError, match="anonymous"):
            (
                scenario()
                .processes(5)
                .distinct_ids(5)
                .detectors("AOmega", stabilization=20.0)
                .consensus("anonymous_aomega")
                .build()
            )

    def test_consensus_refuses_synchronous_timing(self):
        with pytest.raises(ScenarioValidationError, match="synchronous"):
            (
                scenario()
                .processes(4)
                .distinct_ids(2)
                .timing(synchronous())
                .detectors("HOmega", "HSigma", stabilization=10.0)
                .consensus("homega_hsigma")
                .build()
            )

    def test_figure6_program_requires_partial_synchrony(self):
        with pytest.raises(ScenarioValidationError, match="partial_sync"):
            (
                scenario()
                .processes(4)
                .distinct_ids(2)
                .program("ohp_polling")
                .check("diamond_hp")
                .build()
            )

    def test_processes_contradicting_groups_is_rejected(self):
        with pytest.raises(ScenarioValidationError, match="contradicts"):
            scenario().processes(4).homonyms([3, 3]).consensus("homega_hsigma").build()

    def test_processes_and_shape_commute(self):
        """Regression: shape methods must not freeze n at call time."""
        first = (
            scenario().anonymous().processes(5)
            .detectors("HOmega", "HSigma", stabilization=5.0)
            .consensus("homega_hsigma").build()
        )
        second = (
            scenario().processes(5).anonymous()
            .detectors("HOmega", "HSigma", stabilization=5.0)
            .consensus("homega_hsigma").build()
        )
        assert first == second
        assert first.membership.build().is_anonymous

    def test_late_processes_call_wins(self):
        """Regression: processes() after distinct_ids() must not be ignored."""
        spec = (
            scenario().processes(5).distinct_ids(3).processes(7)
            .detectors("HOmega", "HSigma", stabilization=5.0)
            .consensus("homega_hsigma").build()
        )
        assert spec.membership.build().size == 7

    def test_shape_without_processes_is_a_validation_error(self):
        with pytest.raises(ScenarioValidationError, match="processes"):
            scenario().anonymous().consensus("homega_hsigma").build()

    def test_unknown_consensus_name_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown consensus"):
            scenario().processes(3).unique_ids().consensus("paxos").build()

    def test_detector_spec_objects_pass_through(self):
        spec = (
            scenario()
            .processes(3)
            .unique_ids()
            .detectors(DetectorSpec("HOmega", {"stabilization_time": 5.0}))
            .consensus("homega_majority")
            .build()
        )
        assert spec.detectors[0].params["stabilization_time"] == 5.0

    def _consensus_builder(self, network=None):
        builder = (
            scenario()
            .processes(5)
            .distinct_ids(2)
            .detectors("HOmega", "HSigma", stabilization=10.0)
            .consensus("homega_hsigma")
        )
        return builder.network(network) if network is not None else builder

    def test_unbounded_loss_under_has_needs_adversarial(self):
        with pytest.raises(ScenarioValidationError, match="adversarial"):
            self._consensus_builder(lossy(0.2)).build()
        spec = self._consensus_builder(lossy(0.2)).adversarial().build()
        assert spec.adversarial

    def test_bounded_loss_under_has_is_inside_the_envelope(self):
        spec = self._consensus_builder(lossy(0.2, end=50.0)).build()
        assert not spec.adversarial

    def test_post_gst_loss_under_hps_is_flagged(self):
        builder = (
            scenario()
            .processes(4)
            .distinct_ids(2)
            .timing(partial_sync(gst=30.0, delta=1.0))
            .network(lossy(0.2, end=60.0))
            .detectors("HOmega", "HSigma", stabilization=10.0)
            .consensus("homega_hsigma")
        )
        with pytest.raises(ScenarioValidationError, match="post-GST"):
            builder.build()
        assert builder.adversarial().build().adversarial

    def test_pre_gst_only_loss_under_hps_is_accepted(self):
        spec = (
            scenario()
            .processes(4)
            .distinct_ids(2)
            .timing(partial_sync(gst=30.0, delta=1.0))
            .network(lossy(0.2, end=30.0))
            .detectors("HOmega", "HSigma", stabilization=10.0)
            .consensus("homega_hsigma")
            .build()
        )
        assert not spec.adversarial

    def test_any_link_fault_under_hss_is_flagged(self):
        builder = (
            scenario()
            .processes(4)
            .distinct_ids(2)
            .timing(synchronous())
            .network(jittered(0.5, end=10.0))
            .program("hsigma_sync", detector_name="HSigma")
        )
        with pytest.raises(ScenarioValidationError, match="HSS"):
            builder.build()

    def test_constant_asymmetry_is_inside_every_envelope(self):
        # A fixed per-direction penalty preserves "eventually timely" links.
        spec = self._consensus_builder(asymmetric({"0->1": 3.0})).build()
        assert not spec.adversarial

    def test_unbounded_duplication_is_flagged(self):
        with pytest.raises(ScenarioValidationError, match="adversarial"):
            self._consensus_builder(duplicating(0.5)).build()

    def test_noise_period_only_reaches_leader_detectors(self):
        spec = (
            scenario()
            .processes(3)
            .unique_ids()
            .detectors("HOmega", "HSigma", stabilization=5.0, noise_period=3.0)
            .consensus("homega_hsigma")
            .build()
        )
        by_name = {detector.name: detector.params for detector in spec.detectors}
        assert by_name["HOmega"]["noise_period"] == 3.0
        assert "noise_period" not in by_name["HSigma"]
