"""End-to-end tests for the replicated KV service workload."""

from __future__ import annotations

import pickle

import pytest

from repro.consensus import ConsensusFactory, HOmegaHSigmaConsensus, HOmegaMajorityConsensus
from repro.membership import grouped_identities
from repro.runtime import (
    CHECKS,
    CONSENSUS,
    Engine,
    KVSpec,
    ScenarioSpec,
    ScenarioValidationError,
    cascading,
    lossy,
    minority,
    scenario,
    synchronous,
)
from repro.sim import Simulation
from repro.workloads.kv import runner


def kv_scenario(name="kv-test", *, seed=0, consensus="homega_majority", **kv_options):
    options = dict(clients=3, ops_per_client=3, think_time=1.0, key_space=4)
    options.update(kv_options)
    detectors = (
        ("HOmega", "HSigma") if consensus == "homega_hsigma" else ("HOmega",)
    )
    return (
        scenario(name)
        .homonyms([2, 2, 1])
        .detectors(*detectors, stabilization=10.0)
        .kv(consensus=consensus, **options)
        .horizon(600.0)
        .seed(seed)
        .build()
    )


class TestEndToEnd:
    def test_fault_free_run_completes_and_linearizes(self):
        record = Engine().run(kv_scenario())
        metrics = record.metrics
        assert metrics["completion_rate"] == 1.0
        assert metrics["linearizable"] is True
        assert metrics["lin_violations"] == 0
        assert metrics["slots_committed"] == metrics["ops_completed"]
        assert metrics["throughput"] > 0
        assert 0 < metrics["latency_p50"] <= metrics["latency_p95"] <= metrics["latency_p99"]

    def test_metrics_are_json_safe_scalars(self):
        import json

        record = Engine().run(kv_scenario())
        json.dumps(record.to_dict())  # must not raise

    def test_replica_crash_is_tolerated(self):
        spec = (
            scenario("kv-crash")
            .homonyms([2, 2, 1])
            .detectors("HOmega", stabilization=10.0)
            .crashes(minority(at=12.0, count=1))
            .kv(clients=3, ops_per_client=3, think_time=1.0, key_space=4)
            .horizon(600.0)
            .build()
        )
        metrics = Engine().run(spec).metrics
        assert metrics["completion_rate"] == 1.0
        assert metrics["linearizable"] is True

    def test_lossy_links_erode_completion_not_correctness(self):
        spec = (
            scenario("kv-lossy")
            .homonyms([2, 2, 1])
            .detectors("HOmega", stabilization=10.0)
            .network(lossy(0.3))
            .adversarial()
            .kv(clients=3, ops_per_client=3, think_time=1.0, key_space=4)
            .horizon(300.0)
            .seed(3)
            .build()
        )
        metrics = Engine().run(spec).metrics
        assert metrics["linearizable"] is True  # whatever completed, linearizes

    def test_hsigma_replication_survives_majority_loss(self):
        spec = (
            scenario("kv-hsigma")
            .homonyms([2, 2, 1])
            .detectors("HOmega", "HSigma", stabilization=10.0)
            .crashes(minority(at=15.0, count=1))
            .kv(
                consensus="homega_hsigma",
                clients=2,
                ops_per_client=3,
                think_time=1.0,
                key_space=4,
            )
            .horizon(600.0)
            .build()
        )
        metrics = Engine().run(spec).metrics
        assert metrics["linearizable"] is True

    def test_local_read_mode_answers_from_replica_stores(self):
        record = Engine().run(kv_scenario(read_mode="local", clients=4, ops_per_client=4))
        metrics = record.metrics
        assert metrics["local_reads"] > 0
        assert metrics["completion_rate"] == 1.0

    def test_open_loop_clients_complete(self):
        record = Engine().run(kv_scenario(loop="open", rate=0.3))
        metrics = record.metrics
        assert metrics["ops_issued"] == 9
        assert metrics["linearizable"] is True

    def test_zipf_skew_runs(self):
        metrics = Engine().run(kv_scenario(skew="zipf")).metrics
        assert metrics["completion_rate"] == 1.0

    def test_registered_check_rides_run_record(self):
        spec = (
            scenario("kv-checked")
            .homonyms([2, 2, 1])
            .detectors("HOmega", stabilization=10.0)
            .kv(clients=2, ops_per_client=3, think_time=1.0, key_space=4)
            .check("kv_linearizable")
            .check("hb_detection")
            .horizon(600.0)
            .build()
        )
        metrics = Engine().run(spec).metrics
        assert metrics["kv_linearizable_ok"] is True
        assert "kv_linearizable" in CHECKS
        # a check's published measurements ride along too (one folding loop
        # for KV and plain specs): no heartbeat ran, so nothing was detected.
        # Keys and order pinned on 9ab9472; values with replica traffic
        # multicast to the replica group.
        assert [(k, v) for k, v in metrics.items() if k.startswith("hb_detection")] == [
            ("hb_detection_ok", True),
            ("hb_detection_time", None),
            ("hb_detection_detected", 0),
            ("hb_detection_missed", 0),
            ("hb_detection_median_latency", None),
            ("hb_detection_copies_sent", 896),
            ("hb_detection_end_time", 32.478064279981965),
        ]


_REPLICAS, _CLIENTS = 5, 3


def _traffic(monkeypatch, crashes=None):
    """The trace of a KV run left to its horizon, so every copy lands.

    KV_SYNC fires every 7 time units; the horizon 103 leaves the last round
    (at 98) time to arrive, and nothing else is sent once the clients are done.
    """
    build = (
        scenario("kv-groups")
        .homonyms([2, 2, 1])
        .detectors("HOmega", stabilization=10.0)
        .kv(clients=_CLIENTS, ops_per_client=3, think_time=1.0, key_space=4, sync_period=7.0)
        .horizon(103.0)
    )
    if crashes is not None:
        build = build.crashes(crashes)
    traces = []
    measure, run = runner.kv_metrics, Simulation.run

    def to_horizon(simulation, *, until, stop_when=None, **options):
        return run(simulation, until=until, **options)

    monkeypatch.setattr(runner, "kv_metrics", lambda trace: measure(traces.append(trace) or trace))
    monkeypatch.setattr(Simulation, "run", to_horizon)
    runner.execute_kv_spec(build.build())
    (trace,) = traces
    return trace


def _group_size(kind):
    """How many processes hear one send of ``kind``: replies go to the clients,
    everything else (slot traffic, KV_SYNC, KV_COMMIT, KV_REQUEST) to the replicas."""
    return _CLIENTS if kind == "KV_REPLY" else _REPLICAS


class TestTrafficStaysInItsGroup:
    def test_every_send_reaches_exactly_its_group(self, monkeypatch):
        trace = _traffic(monkeypatch)
        sends = trace.broadcasts_by_kind()
        kinds = {kind.partition("#")[0] for kind in sends}
        assert {"KV_REQUEST", "KV_REPLY", "KV_SYNC", "KV_COMMIT", "PH0", "DECIDE"} <= kinds
        assert all("#s" in kind or kind.startswith("KV_") for kind in sends)
        # Reliable links and no crash: every copy of every send is delivered.
        assert trace.deliveries_by_kind() == {
            kind: count * _group_size(kind) for kind, count in sends.items()
        }
        assert trace.message_copies_sent == sum(trace.deliveries_by_kind().values())

    @pytest.mark.parametrize(
        "crashes, truncated",
        [
            # Two clean crashes: every send still goes to the whole group.
            (minority(at=14.0), 0),
            # The last replica's KV_SYNC at 14.0 goes out as it crashes:
            # int(0.4 × 5) = 2 of its 5 copies are sent.
            (cascading(1, first_at=14.0, partial_broadcast_fraction=0.4), 5 - 2),
        ],
    )
    def test_a_partial_broadcast_crash_truncates_the_multicast(
        self, monkeypatch, crashes, truncated
    ):
        trace = _traffic(monkeypatch, crashes)
        sends = trace.broadcasts_by_kind()
        full = sum(count * _group_size(kind) for kind, count in sends.items())
        assert full - trace.message_copies_sent == truncated


class TestDeterminism:
    def test_same_seed_same_digest_and_metrics(self):
        one = Engine().run(kv_scenario(seed=5))
        two = Engine().run(kv_scenario(seed=5))
        assert one.digest == two.digest
        assert one.metrics == two.metrics

    def test_different_seeds_differ(self):
        one = Engine().run(kv_scenario(seed=1))
        two = Engine().run(kv_scenario(seed=2))
        assert one.digest != two.digest

    def test_serial_and_pooled_digests_are_bit_identical(self):
        specs = [kv_scenario(seed=seed) for seed in range(3)]
        serial = [record.digest for record in Engine().run_many(specs)]
        with Engine(jobs=2) as engine:
            pooled = [record.digest for record in engine.run_many(specs)]
        assert serial == pooled


class TestSpecPlumbing:
    def test_kv_spec_round_trips(self):
        kv = KVSpec(clients=5, skew="zipf", mix={"GET": 1.0}, read_mode="local")
        assert KVSpec.from_dict(kv.to_dict()) == kv

    def test_scenario_spec_round_trips_with_kv(self):
        spec = kv_scenario(skew="zipf")
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.kv is not None and clone.kv.skew == "zipf"

    def test_with_seed_preserves_kv_section(self):
        spec = kv_scenario(seed=0)
        assert spec.with_seed(9).kv == spec.kv

    def test_specs_without_kv_serialize_as_before(self):
        # Pre-KV canonical hashes (and hence run-cache keys) must not move.
        spec = (
            scenario("plain")
            .processes(3)
            .distinct_ids(2)
            .detectors("HOmega", stabilization=10.0)
            .consensus("homega_majority")
            .build()
        )
        assert "kv" not in spec.to_dict()

    def test_kv_validation_rejects_bad_options(self):
        with pytest.raises(Exception):
            KVSpec(loop="batch")
        with pytest.raises(Exception):
            KVSpec(clients=0)
        with pytest.raises(Exception):
            KVSpec(read_mode="quorum")


class TestBuilderValidation:
    def base(self):
        return (
            scenario("kv-builder")
            .homonyms([2, 2, 1])
            .detectors("HOmega", stabilization=10.0)
            .kv(clients=2, ops_per_client=2)
        )

    def test_kv_is_mutually_exclusive_with_consensus(self):
        with pytest.raises(ScenarioValidationError, match="owns the whole system"):
            self.base().consensus("homega_majority").build()

    def test_kv_rejects_synchronous_timing(self):
        with pytest.raises(ScenarioValidationError, match="synchronous"):
            self.base().timing(synchronous()).build()

    def test_kv_requires_the_algorithms_detectors(self):
        with pytest.raises(ScenarioValidationError, match="HOmega"):
            (
                scenario("kv-nodet")
                .homonyms([2, 2, 1])
                .kv(clients=2, ops_per_client=2)
                .build()
            )

    def test_kv_majority_algorithms_reject_majority_crashes(self):
        with pytest.raises(ScenarioValidationError, match="majority"):
            (
                scenario("kv-majority")
                .homonyms([2, 2, 1])
                .detectors("HOmega", stabilization=10.0)
                .crashes(minority(at=5.0, count=3))
                .kv(clients=2, ops_per_client=2)
                .build()
            )

    def test_kv_spec_and_options_are_mutually_exclusive(self):
        with pytest.raises(ScenarioValidationError):
            scenario("x").homonyms([2, 1]).kv(KVSpec(), clients=3)

    def test_scenario_without_any_workload_still_rejected(self):
        with pytest.raises(ScenarioValidationError, match="workload"):
            scenario("empty").processes(3).distinct_ids(2).build()


def _factory(name="homega_majority", **params):
    """The one factory: a registry entry bound to a membership (n = 5)."""
    return CONSENSUS.resolve(name).factory(grouped_identities([2, 2, 1]), **params)


class TestConsensusFactories:
    def test_named_factory_builds_the_right_program(self):
        program = _factory()("proposal")
        assert isinstance(program, HOmegaMajorityConsensus)
        assert program.proposal == "proposal"
        assert program.quorum.n == 5

    def test_hsigma_factory(self):
        assert isinstance(_factory("homega_hsigma")("p"), HOmegaHSigmaConsensus)

    def test_factory_is_picklable_unlike_a_lambda(self):
        clone = pickle.loads(pickle.dumps(_factory(record_outputs=False)))
        program = clone("p")
        assert isinstance(program, HOmegaMajorityConsensus)
        assert program.record_outputs is False

    def test_factory_has_an_unambiguous_qualname(self):
        # The RunCache refuses "<lambda>" qualnames; the named factory's
        # class qualname is stable and cache-eligible.
        assert type(_factory()).__qualname__ == "ConsensusFactory"
        assert "<lambda>" not in type(_factory()).__qualname__

    def test_factory_repr_names_the_algorithm(self):
        assert "HOmegaMajorityConsensus" in repr(_factory())
        assert ConsensusFactory(HOmegaMajorityConsensus, n=5).describe() == (
            "HOmegaMajorityConsensus"
        )


class TestExperimentRegistration:
    def test_e10_is_registered(self):
        from repro.experiments import ALL_EXPERIMENTS

        assert "E10" in ALL_EXPERIMENTS

    def test_quick_e10_is_fully_linearizable(self):
        from repro.experiments import ALL_EXPERIMENTS

        result = ALL_EXPERIMENTS["E10"](quick=True, seed=0)
        assert result.experiment == "E10"
        assert result.summary["all_linearizable"] is True
        assert result.summary["violations"] == 0
        assert result.summary["baseline_all_complete"] is True
        assert len(result.rows) == 12
