"""Tests for the declarative runtime layer: specs, builder, validation."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    canonical_spec_hash,
    cascading,
    composed,
    crashes_at,
    duplicating,
    execute_spec,
    fraction,
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
from repro.workloads.crashes import CRASH_KINDS


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

_BASE = _PINNED_BASE.to_dict()

#: Literal ``canonical_hash()`` values, computed at commit 65b085c (before the
#: spec sections were table-driven).  They are run-cache and fabric-plan keys:
#: a change here orphans every stored run, so it must be deliberate.  Each row
#: is a payload; the rows in ``_REFUSED`` pair the base's consensus workload
#: with a section the requirement table refuses beside it (a KV service, the
#: real backend, a sparse topology), so they exist only as hashed dicts.
_PINNED_HASHES = {
    "bare": (
        _BASE,
        "c5cf701b71f0ed51dd16ddba40a792401e67bd15da66e8bdf0b297f0d39ddd64",
    ),
    "lossy": (
        replace(_PINNED_BASE, network=lossy(0.2, end=40.0)).to_dict(),
        "0a3c8e9b1a3854662c7f8559e155877f16ae9ff632baf172ac76244050bf7e02",
    ),
    "kv": (
        {**_BASE, "kv": KVSpec().to_dict()},
        "f363459e75a196998c381c56da05aebae810bbada0f40439a4e42f7ad5e5d31a",
    ),
    "real_backend": (
        {**_BASE, "backend": "real", "backend_params": {"time_scale": 0.02}},
        "9f69aeac8dcbf3f16eb6a5b396cfc1294c9ab8162b88fc593d3f10ebe075ca06",
    ),
    "real_backend_no_params": (
        {**_BASE, "backend": "real", "backend_params": {}},
        "5832bbc3bfc9ae03eec543d17b45c8b7e9c2a2da350571ab498d3a71fdb48edc",
    ),
    "ring": (
        {**_BASE, "topology": ring(3).to_dict()},
        "77a90a21b892280686d86d54ca1908798aa2a8348bfa60cb7ebcb0f8596db211",
    ),
    "explicit_full_mesh": (  # must equal "bare"
        replace(_PINNED_BASE, topology=full_mesh()).to_dict(),
        "c5cf701b71f0ed51dd16ddba40a792401e67bd15da66e8bdf0b297f0d39ddd64",
    ),
}
_REFUSED = {"kv", "real_backend", "real_backend_no_params", "ring"}


class TestPinnedCanonicalHashes:
    @pytest.mark.parametrize("name", _PINNED_HASHES)
    def test_hash_is_frozen_and_the_spec_round_trips(self, name):
        payload, expected = _PINNED_HASHES[name]
        assert canonical_spec_hash(payload) == expected
        if name in _REFUSED:
            with pytest.raises(ScenarioValidationError):
                ScenarioSpec.from_dict(payload)
            return
        spec = ScenarioSpec.from_dict(payload)
        assert spec.canonical_hash() == expected
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec


#: One spec per crash kind, each with the parameters its resolver takes.
EVERY_CRASH_KIND = [
    no_crashes(),
    minority(count=1),
    cascading(2, partial_broadcast_fraction=0.5),
    leaders(),
    fraction(0.5, seed=3),
    crashes_at({0: 3.0, 2: 5.0}),
]


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

    def test_unknown_crash_kind_is_rejected_when_the_spec_is_made(self):
        with pytest.raises(ConfigurationError, match="unknown crash kind 'meteor'"):
            CrashSpec("meteor")
        payload = figure9_spec().to_dict()
        payload["crashes"] = {"kind": "meteor", "params": {}}
        with pytest.raises(ConfigurationError, match="unknown crash kind 'meteor'"):
            ScenarioSpec.from_dict(payload)

    def test_the_round_trip_below_covers_every_crash_kind(self):
        assert [crashes.kind for crashes in EVERY_CRASH_KIND] == list(CRASH_KINDS)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("crashes", EVERY_CRASH_KIND, ids=lambda crashes: crashes.kind)
    def test_a_crash_kind_builds_the_same_schedule_after_a_json_round_trip(self, crashes, n):
        membership = MembershipSpec("unique", n=n).build()
        again = CrashSpec.from_dict(json.loads(json.dumps(crashes.to_dict())))
        assert again == crashes
        schedule = again.build(membership)
        assert schedule == crashes.build(membership)
        assert bool(schedule.faulty) is (crashes.kind != "none")

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

    @pytest.mark.parametrize("family", ["HAS consensus", "HPS consensus", "HAS KV"])
    def test_healing_duplication_is_outside_every_consensus_envelope(self, family):
        """Counting messages needs links that never duplicate: a duplicated copy
        counts as a homonym's, so agreement, not only termination, is at stake."""
        builders = {
            "HAS consensus": self._consensus_builder,
            "HPS consensus": lambda network: (
                scenario().homonyms([2, 2, 1]).timing(partial_sync(gst=50.0, delta=1.0))
                .network(network).detectors("HOmega", stabilization=10.0)
                .consensus("homega_majority")
            ),
            "HAS KV": lambda network: (
                scenario().homonyms([2, 2, 1]).network(network)
                .detectors("HOmega", stabilization=10.0).kv(clients=2, ops_per_client=2)
            ),
        }
        builder = builders[family]
        healing = duplicating(1.0, copies=3, end=40.0)  # ends before the HPS GST
        for network in (healing, composed(lossy(0.1, end=40.0), healing)):
            with pytest.raises(ScenarioValidationError, match="duplicates copies"):
                builder(network).build()
            assert builder(network).adversarial().build().adversarial
        assert not builder(lossy(0.1, end=40.0)).build().adversarial  # loss is unchanged

    def test_healing_duplication_stays_inside_a_monitoring_envelope(self):
        spec = (
            scenario().processes(3).unique_ids().network(duplicating(0.5, end=40.0))
            .program("heartbeat").build()
        )
        assert not spec.adversarial

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


def figure8_spec() -> ScenarioSpec:
    """Figure 8 on five homonymous processes with one crash: inside t < n/2."""
    return (
        scenario("figure8")
        .processes(5)
        .distinct_ids(3)
        .timing(partial_sync(gst=10.0, delta=1.0))
        .crashes(cascading(1, first_at=4.0))
        .network(lossy(0.2, end=8.0))
        .detectors("HOmega", stabilization=15.0)
        .consensus("homega_majority")
        .horizon(80.0)
        .seed(3)
        .build()
    )


#: What each flat pair's refusal names: the section and the names it accepts.
_TAKES = {
    "program": r"program 'heartbeat' .*\['hb_interval', 'hb_timeout', 'record_pings'\]",
    "consensus": r"^consensus 'homega_majority' .*\['t'\]",
    "kv": r"KV consensus 'homega_majority' .*\['t'\]",
    "backend": (
        r"backend 'real' .*\['time_scale', 'settle', 'ready_timeout', 'mesh_deadline', "
        r"'fault_action', 'resume_after', 'log_dir', 'keep_logs'\]"
    ),
}


def _flat_pair(pair):
    """A valid spec dict, and the ``params`` mapping of its flat pair ``pair`` in it."""
    heartbeat = scenario("hb").processes(3).unique_ids().program("heartbeat")
    if pair == "kv":
        build = scenario("kv").homonyms([2, 2, 1]).detectors("HOmega", stabilization=10.0).kv()
        payload = build.build().to_dict()
        return payload, payload["kv"]["consensus_params"]
    spec = {
        "program": heartbeat.build(),
        "consensus": figure8_spec(),
        "backend": heartbeat.backend("real").build(),
    }[pair]
    payload = spec.to_dict()
    return payload, payload[f"{pair}_params"]


class TestASpecIsCheckedWhereItIsMade:
    """Every way of making a spec runs the requirement table, and every
    section refuses a key or parameter it would otherwise have ignored."""

    def test_from_dict_refuses_figure8_with_three_of_five_crashed(self):
        payload = figure8_spec().to_dict()
        payload["crashes"] = cascading(3).to_dict()
        with pytest.raises(ScenarioValidationError, match=r"t < n/2.*3 of 5"):
            ScenarioSpec.from_dict(payload)

    def test_with_seed_and_replace_run_the_table(self):
        spec = figure8_spec()
        assert spec.with_seed(11) == replace(spec, seed=11) != spec
        with pytest.raises(ScenarioValidationError, match="t < n/2"):
            replace(spec, crashes=cascading(3))
        with pytest.raises(ConfigurationError, match="seed"):
            spec.with_seed("11")

    @pytest.mark.parametrize(
        "edit",
        [
            {"horizn": 80.0},
            {"seed": "3"},
            {"seed": 3.0},
            {"horizon": "80"},
            {"horizon": -1.0},
            {"horizon": float("inf")},
            {"adversarial": "no"},
            {"network": {"kind": "lossy", "parms": {"loss": 0.5}}},
            {"network": {"kind": "lossy", "params": {"los": 0.5}}},
            {"crashes": {"kind": "cascading", "params": {"cout": 2}}},
            {"timing": {"kind": "partial_sync", "params": {"GST": 10.0}}},
            {"detectors": [{"name": "HOmega", "params": {"stabilisation_time": 5.0}}]},
            {"detectors": [{"name": "Nope", "params": {}}]},
            {"membership": {"kind": "unique", "size": 5}},
        ],
        ids=lambda edit: json.dumps(edit),
    )
    def test_from_dict_refuses_what_it_used_to_ignore_or_defer(self, edit):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict({**figure8_spec().to_dict(), **edit})

    @pytest.mark.parametrize(
        "pair, params",
        [
            ("program", {"hb_intervl": 1.0}),
            ("program", {"hb_interval": "1.0"}),
            ("program", {"index": 1}),
            ("consensus", {"tt": 1}),
            ("consensus", {"t": "1"}),
            ("consensus", {"n": 5}),
            ("kv", {"tt": 1}),
            ("kv", {"t": 1.5}),
            ("backend", {"time_scal": 0.02}),
            ("backend", {"fault_action": "stop"}),
            ("backend", {"keep_logs": "yes"}),
        ],
        ids=lambda value: json.dumps(value) if isinstance(value, dict) else value,
    )
    def test_from_dict_binds_every_flat_pair_to_its_maker(self, pair, params):
        """A misspelt, mistyped or engine-injected parameter of ``program_params``,
        ``consensus_params`` (the scenario's and the KV section's) or
        ``backend_params`` is refused where the spec is made, naming the
        section and the names it accepts."""
        payload, mapping = _flat_pair(pair)
        mapping.update(params)
        with pytest.raises(ConfigurationError, match=_TAKES[pair]):
            ScenarioSpec.from_dict(payload)

    def test_a_sim_spec_and_a_nameless_pair_take_no_parameters(self):
        for pair, key in (("backend", "backend_params"), ("consensus", "program_params")):
            payload, _ = _flat_pair(pair)
            payload[key] = {"x": 1}
            if pair == "backend":
                payload["backend"] = "sim"
            with pytest.raises(ConfigurationError, match=r"takes \[\], got \['x'\]"):
                ScenarioSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "params",
        [
            {"stabilization_time": -2.0},
            {"stabilization_time": float("nan")},
            {"stabilization_time": float("inf")},
            {"noise_period": float("nan")},
        ],
        ids=lambda params: json.dumps(params),
    )
    def test_from_dict_refuses_a_bad_oracle_time(self, params):
        """The oracle's own time check runs where the spec is made, not in the run."""
        payload = figure8_spec().to_dict()
        payload["detectors"] = [{"name": "HOmega", "params": params}]
        with pytest.raises(ConfigurationError, match="stabilization time|noise period"):
            ScenarioSpec.from_dict(payload)

    def test_a_program_value_is_checked_where_the_spec_is_made(self):
        """The program is built once while the spec is made, so its own value
        checks refuse the spec instead of failing inside a run."""
        base = scenario("hb").processes(3).unique_ids().horizon(20.0)
        with pytest.raises(
            ScenarioValidationError, match="program 'heartbeat': hb_interval must be positive"
        ):
            base.program("heartbeat", hb_interval=-1.0).build()
        payload = base.program("heartbeat").build().to_dict()
        payload["program_params"] = {"hb_interval": -1.0}
        with pytest.raises(ScenarioValidationError, match="hb_interval must be positive"):
            ScenarioSpec.from_dict(payload)

    def test_the_membership_program_needs_a_sparse_topology_where_the_spec_is_made(self):
        def base():
            return scenario("churn").processes(6).unique_ids().horizon(20.0).program("membership")

        payload = base().topology(ring(2)).build().to_dict()  # the engine's injections fit
        with pytest.raises(
            ScenarioValidationError, match="program 'membership': .*needs a sparse"
        ):
            base().build()
        del payload["topology"]
        with pytest.raises(ScenarioValidationError, match="needs a sparse monitoring topology"):
            ScenarioSpec.from_dict(payload)

    def test_kv_refuses_an_unknown_key(self):
        with pytest.raises(ConfigurationError, match=r"KVSpec takes \[.*\], got \['client'\]"):
            KVSpec.from_dict({"client": 8})

    def test_a_bad_parameter_names_its_section_and_the_accepted_ones(self):
        with pytest.raises(
            ConfigurationError,
            match=r"crash 'cascading' takes \['count', 'first_at', 'interval', "
            r"'partial_broadcast_fraction'\], got \['cout'\]",
        ):
            CrashSpec("cascading", {"cout": 2})
        with pytest.raises(ConfigurationError, match="crash 'fraction' takes"):
            CrashSpec("fraction", {})  # the required fraction is missing
        with pytest.raises(ConfigurationError, match=r"detector 'HOmega' takes \['stabiliz"):
            DetectorSpec("HOmega", {"stabilisation_time": 5.0})
        with pytest.raises(ConfigurationError, match="unknown detector name 'Nope'"):
            DetectorSpec("Nope")
        with pytest.raises(ConfigurationError, match="timing 'asynchronous' takes"):
            TimingSpec("asynchronous", {"max_latncy": 3.0})
        with pytest.raises(ConfigurationError, match="link model 'lossy' takes"):
            NetworkSpec("lossy", {"los": 0.5})

    def test_a_payload_without_timing_loads_the_constructor_default(self):
        spec = figure9_spec()
        payload = spec.to_dict()
        del payload["timing"]
        loaded = ScenarioSpec.from_dict(payload)
        assert loaded.timing == asynchronous() == replace(spec, timing=asynchronous()).timing
        assert loaded.timing.build().max_latency == 2.0

    def test_a_payload_of_defaults_round_trips(self):
        minimal = {"membership": {"kind": "unique", "n": 3}, "program": "heartbeat"}
        spec = ScenarioSpec.from_dict(minimal)
        assert spec == ScenarioSpec(membership=MembershipSpec("unique", n=3), program="heartbeat")
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    # The largest finite time is 1e3: an oracle pre-schedules one wake-up per
    # noise period up to its stabilization time, so 1e9 would mean 2e8 events.
    st.sampled_from([0.0, 0.5, 2.5, -1.0, 1e3, float("nan"), float("inf")]),
    st.sampled_from(["", "x", "unique", "lossy", "cascading", "ring", "HOmega", "homega_hsigma"]),
)
#: A JSON value, some of them dicts with the keys spec sections use.
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["kind", "name", "params", "n", "loss", "x"]), inner, max_size=3
    ),
    max_leaves=5,
)


def _paths(value, prefix=()):
    """Every path to a value inside a JSON tree (dict keys and list indices)."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
    else:
        items = ()
    for key, inner in items:
        yield (*prefix, key)
        yield from _paths(inner, (*prefix, key))


_MUTABLE_PATHS = [*_paths(figure8_spec().to_dict())] + [
    ("kv",), ("topology",), ("backend",), ("backend_params",)  # sections it leaves out
]


class TestEveryMutantIsRefusedOrRuns:
    @given(path=st.sampled_from(_MUTABLE_PATHS), value=_JSON_VALUES)
    def test_a_one_field_mutant_is_refused_at_from_dict_or_runs(self, path, value):
        """Change one field of a valid spec dict: ``from_dict`` raises
        ``ConfigurationError`` or the spec it makes runs to its end."""
        payload = figure8_spec().to_dict()
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        try:
            spec = ScenarioSpec.from_dict(payload)
        except ConfigurationError:
            return
        assert execute_spec(spec).config == spec.to_dict()
