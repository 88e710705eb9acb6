"""End-to-end tests for the replicated KV service workload."""

from __future__ import annotations

import functools
import hashlib
import json
import pickle
import weakref

import pytest

from repro.consensus import ConsensusFactory, HOmegaHSigmaConsensus, HOmegaMajorityConsensus
from repro.context import ProcessContext
from repro.identity import ProcessId
from repro.membership import Membership, grouped_identities
from repro.runtime import (
    CHECKS,
    CONSENSUS,
    Engine,
    KVSpec,
    ScenarioSpec,
    ScenarioValidationError,
    cascading,
    execute_spec,
    lossy,
    measure_run,
    minority,
    scenario,
    simulate_spec,
    synchronous,
)
from repro.sim import (
    AsynchronousTiming,
    Clock,
    EventQueue,
    RngStreams,
    RunTrace,
    Simulation,
    build_system,
)
from repro.sim.message import Message
from repro.sim.network import Network
from repro.sim.process import ProcessRuntime
from repro.sim.system import DetectorServices
from repro.workloads.kv import (
    ClientLoad,
    KVClientProgram,
    ReplicatedKVProgram,
    replica,
    request_id,
    requester,
)
from repro.workloads.kv import __main__ as cli
from repro.workloads.kv.runner import _ReplicaScopedDetector, kv_system


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
        # Keys and order pinned on 9ab9472, plus the violation count every check
        # folds; values with announcements multicast to the replica group and
        # answers to the asker's identifier.
        assert [(k, v) for k, v in metrics.items() if k.startswith("hb_detection")] == [
            ("hb_detection_ok", True),
            ("hb_detection_time", None),
            ("hb_detection_violations", 0),
            ("hb_detection_detected", 0),
            ("hb_detection_missed", 0),
            ("hb_detection_median_latency", None),
            ("hb_detection_copies_sent", 897),
            ("hb_detection_end_time", 32.047588393964894),
        ]


_REPLICAS = 5


def _traffic(monkeypatch, crashes=None):
    """Every send of a KV run left to its horizon, so every copy lands.

    KV_SYNC fires every 7 time units; the horizon 103 leaves the last round
    (at 98) time to arrive, and nothing else is sent once the clients are done.
    Returns ``(trace, membership, sends)``, one ``(kind, targets, payload,
    syncing)`` row per ``Network.multicast`` call, where ``syncing`` is the
    ``identity`` of the KV_SYNC whose handler made the send (``None`` outside
    one).
    """
    build = (
        scenario("kv-groups")
        .homonyms([2, 2, 1])
        .detectors("HOmega", stabilization=10.0)
        .kv(clients=3, ops_per_client=3, think_time=1.0, key_space=4, sync_period=7.0)
        .horizon(103.0)
    )
    if crashes is not None:
        build = build.crashes(crashes)
    runs, sends, syncing = [], [], [None]
    run, multicast, on_sync = Simulation.run, Network.multicast, ReplicatedKVProgram._on_sync

    def to_horizon(simulation, *, until, stop_when=None, **options):
        runs.append((run(simulation, until=until, **options), simulation.system.membership))
        return runs[-1][0]

    def recorded(network, sender, message, targets):
        targets = tuple(targets)
        sends.append((message.kind, frozenset(targets), message.payload, syncing[-1]))
        multicast(network, sender, message, targets)

    def answering(program, ctx, message):
        syncing.append(message["identity"])
        on_sync(program, ctx, message)
        syncing.pop()

    monkeypatch.setattr(Simulation, "run", to_horizon)
    monkeypatch.setattr(Network, "multicast", recorded)
    monkeypatch.setattr(ReplicatedKVProgram, "_on_sync", answering)
    execute_spec(build.build())
    ((trace, membership),) = runs
    return trace, membership, sends


def _holders(membership, identity):
    return frozenset(process.index for process in membership.processes_with_identity(identity))


def _addressees(membership, kind, payload, syncing):
    """Who one send must reach: a KV_REPLY the requester's identifier, a
    KV_COMMIT the syncing replica's, and every announcement (slot traffic,
    KV_SYNC, KV_REQUEST) the replica group."""
    if kind == "KV_REPLY":
        return _holders(membership, requester(payload["request_id"]))
    if kind == "KV_COMMIT":
        return _holders(membership, syncing)
    return frozenset(range(_REPLICAS))


class TestAnswersGoToTheAsker:
    def test_every_send_reaches_exactly_its_addressees(self, monkeypatch):
        trace, membership, sends = _traffic(monkeypatch)
        kinds = {kind.partition("#")[0] for kind, *_ in sends}
        assert {"KV_REQUEST", "KV_REPLY", "KV_SYNC", "KV_COMMIT", "PH0", "DECIDE"} <= kinds
        assert all("#s" in kind or kind.startswith("KV_") for kind, *_ in sends)
        for kind, targets, payload, syncing in sends:
            assert targets == _addressees(membership, kind, payload, syncing), (kind, payload)
        # With ids [2, 2, 1] a KV_COMMIT reaches a homonymous pair or a lone replica.
        assert {len(targets) for kind, targets, *_ in sends if kind == "KV_COMMIT"} == {1, 2}
        # Reliable links and no crash: every addressed copy is delivered.
        copies = sum(len(targets) for _, targets, _, _ in sends)
        assert trace.message_copies_sent == copies == sum(trace.delivered_by_kind.values())

    @pytest.mark.parametrize(
        "crashes, truncated",
        [
            # Two clean crashes: no multicast is truncated.
            (minority(at=14.0), 0),
            # The last replica's KV_SYNC at 14.0 goes out as it crashes:
            # int(0.4 × 5) = 2 of its 5 copies are sent.
            (cascading(1, first_at=14.0, partial_broadcast_fraction=0.4), 5 - 2),
        ],
    )
    def test_a_partial_broadcast_crash_truncates_the_multicast(
        self, monkeypatch, crashes, truncated
    ):
        trace, membership, sends = _traffic(monkeypatch, crashes)
        for kind, targets, payload, syncing in sends:
            assert targets == _addressees(membership, kind, payload, syncing), (kind, payload)
        full = sum(len(targets) for _, targets, _, _ in sends)
        assert full - trace.message_copies_sent == truncated

    def test_a_reply_reaches_every_homonym_of_the_requester(self):
        # One replica; two clients share the identifier "c", a third is "d".
        membership = Membership.of(["r", "c", "c", "d"])
        holders = {
            identity: tuple(sorted(_holders(membership, identity)))
            for identity in membership.distinct_identities
        }

        def program(pid, identity):
            if identity == "r":
                return ReplicatedKVProgram(
                    consensus_factory=_DecidesItsProposal,
                    replicas=range(1),
                    holders=holders,
                    sync_period=0,
                )
            return _Overhearing(
                client_name=identity,
                load=ClientLoad(ops=1),
                replicas=range(1),
                on_finished=lambda: None,
            )

        system = build_system(
            membership=membership,
            timing=AsynchronousTiming(min_latency=0.1, max_latency=1.0),
            program_factory=program,
        )
        trace = Simulation(system).run(until=60.0)
        heard = [
            {value for _, value in trace.records_of(ProcessId(index), "heard")}
            for index in (1, 2, 3)
        ]
        assert heard == [{request_id("c", 0)}, {request_id("c", 0)}, {request_id("d", 0)}]


class TestTheSlotScope:
    """A consensus instance sees its process's context scoped to one slot."""

    def test_a_slot_overrides_exactly_the_scoped_methods(self):
        assert replica._SlotContext.__bases__ == (ProcessContext,)
        overridden = {name for name in vars(replica._SlotContext) if not name.startswith("_")}
        assert overridden == {"broadcast", "multicast", "on", "spawn", "record", "decide"}

    def test_every_send_from_a_slot_arrives_under_the_suffixed_kind(self):
        sent, heard, unscoped, committed, trace = [], [], [], [], RunTrace()
        runtime = _replica_runtime(
            trace, lambda sender, message, targets: sent.append((message, tuple(targets)))
        )
        slot = replica._SlotContext(runtime.context, 3, range(4), lambda *c: committed.append(c))
        slot.on("PH1", heard.append)
        runtime.context.on("PH1", unscoped.append)
        slot.multicast("PH1", (0, 2), round=1)
        slot.broadcast("PH2", round=1)
        assert [(message.kind, targets) for message, targets in sent] == [
            ("PH1#s3", (0, 2)),
            ("PH2#s3", (0, 1, 2, 3)),
        ]
        for message, _ in sent:
            runtime.deliver(message)
        assert [message.kind for message in heard] == ["PH1#s3"] and unscoped == []
        slot.record("estimate", 5)
        slot.decide("v")
        assert trace.records_of(ProcessId(0), "kv.s3.estimate") == [(0.0, 5)]
        assert committed == [(3, "v")]

    def test_a_late_copy_for_a_decided_slot_runs_no_handler_and_is_still_counted(self):
        trace, committed = RunTrace(), []
        runtime = _replica_runtime(trace, None)
        instance = _BuffersUntilDecided()
        heard, alive = instance.heard, weakref.ref(instance)
        instance.setup(
            replica._SlotContext(runtime.context, 3, range(4), lambda *c: committed.append(c))
        )
        del instance
        runtime.deliver(Message("PH1#s3", {"round": 1}))
        runtime.deliver(Message("DECIDE#s3", {"value": "v"}))
        assert committed == [(3, "v")] and [m["round"] for m in heard] == [1]
        # Nothing the runtime holds leads to the instance: reference counting freed it.
        assert runtime._handlers == {} and alive() is None
        runtime.deliver(Message("PH1#s3", {"round": 2}))
        runtime.deliver(Message("DECIDE#s3", {"value": "w"}))
        assert committed == [(3, "v")] and [m["round"] for m in heard] == [1]
        assert trace.delivered_by_kind == {"PH1#s3": 2, "DECIDE#s3": 2}


def _replica_runtime(trace, multicast_fn):
    """A bare replica-side runtime: no program started, sends go to ``multicast_fn``."""
    return ProcessRuntime(
        ProcessId(0),
        "r",
        _DecidesItsProposal("unused"),
        clock=Clock(),
        queue=EventQueue(),
        timing=AsynchronousTiming(),
        trace=trace,
        rng_streams=RngStreams(0),
        broadcast_fn=None,  # a slot never broadcasts beyond the replica group
        multicast_fn=multicast_fn,
    )


class _BuffersUntilDecided:
    """A consensus instance that buffers ``PH1`` and adopts the first ``DECIDE``."""

    def __init__(self):
        self.heard = []

    def setup(self, ctx):
        ctx.on("PH1", self._on_ph1)
        ctx.on("DECIDE", lambda message: ctx.decide(message["value"]))

    def _on_ph1(self, message):
        self.heard.append(message)


#: The ``kv_service`` benchmark's cells: ``cell: (clients, skew, replica crash)``.
_SERVICE_CELLS = {
    "kv_zipf": (14, "zipf", False),
    "kv_crash": (8, "zipf", True),
    "kv_uniform": (16, "uniform", False),
}

#: ``(cell, seed): sha256 of the sorted-key RunRecord JSON``, first 16 hex
#: digits, as the run printed while every replica kept every slot's instance.
_SERVICE_RECORDS = {
    ("kv_zipf", 0): "452527bae6d6bbe7",
    ("kv_crash", 0): "4b4eb1f8be9deeb9",
    ("kv_uniform", 0): "50746c6b5865f7b1",
    ("kv_zipf", 1): "abf3bd6e23809672",
    ("kv_crash", 1): "46f0fcbe74735079",
    ("kv_uniform", 1): "d0a1c6207252af09",
    ("kv_zipf", 2): "816f85a1b99ee2fa",
    ("kv_crash", 2): "386ecc894b3fc489",
    ("kv_uniform", 2): "5aa4e27acaa0f17e",
}


@functools.lru_cache(maxsize=None)
def _service_run(cell, seed):
    """``(slot-scoped handler kinds each replica still holds, record JSON sha)``."""
    clients, skew, crash = _SERVICE_CELLS[cell]
    build = (
        scenario(cell)
        .homonyms([2, 2, 1])
        .detectors("HOmega", stabilization=10.0)
        .kv(clients=clients, ops_per_client=25, skew=skew, think_time=1.0, key_space=6)
        .horizon(6000.0)
        .seed(seed)
    )
    if crash:
        build = build.crashes(minority(at=12.0, count=1))
    spec = build.build()
    simulation = simulate_spec(spec)
    held = tuple(
        sum("#s" in kind for kind in simulation.runtimes[process]._handlers)
        for process in spec.membership.build().processes
    )
    text = json.dumps(measure_run(spec, simulation).to_dict(), sort_keys=True)
    simulation.close()
    return held, hashlib.sha256(text.encode()).hexdigest()[:16]


class TestADecidedSlotFreesItself:
    """A replica drops a slot's consensus handlers at the slot's decision."""

    @pytest.mark.parametrize("cell", sorted(_SERVICE_CELLS))
    def test_a_replica_holds_handlers_only_for_its_undecided_instance(self, cell):
        # One instance registers five kinds (COORD, PH0, PH1, PH2, DECIDE);
        # kept to the end of the run, a replica would hold five per slot.
        held, _ = _service_run(cell, 0)
        assert max(held) <= 5, f"slot-scoped handler kinds per replica: {held}"

    @pytest.mark.parametrize("cell, seed", sorted(_SERVICE_RECORDS))
    def test_the_run_record_is_unchanged(self, cell, seed):
        assert _service_run(cell, seed)[1] == _SERVICE_RECORDS[cell, seed]


class TestCommandLineGate:
    def test_a_starved_client_fails_the_gate(self, monkeypatch, capsys):
        # Every reply goes to the lone "grp2" replica: no client hears one, so
        # each closed-loop client waits on its first operation, and a history
        # of pending operations still linearizes.
        monkeypatch.setattr(replica, "requester", lambda request_id: "grp2")
        assert cli.main(["--clients", "2", "--ops", "2"]) == 1
        assert "STARVED: 0 of 2 operations completed" in capsys.readouterr().err

    def test_lossy_links_may_leave_operations_pending(self, monkeypatch):
        monkeypatch.setattr(replica, "requester", lambda request_id: "grp2")
        assert cli.main(["--clients", "2", "--ops", "2", "--fault", "lossy"]) == 0


# What ``python -m repro.workloads.kv --fault <cell>`` printed at seed 0 while
# the KV runner still built, ran and measured its own system: digest,
# ``ops_issued``, ``ops_completed``, ``slots_committed`` and the keys certified
# by version order.
_CLI_CELLS = {
    "none": ("fb3ffc10043172e2", 24, 24, 24, "6/6"),
    "crash": ("a092c3a886c56ac9", 24, 24, 24, "6/6"),
    "lossy": ("c264204c01fd7ff1", 12, 9, 9, "5/5"),
}


class TestOneRunPath:
    """A KV spec is built, run and measured by the engine's one simulator path."""

    @pytest.mark.parametrize("fault", sorted(_CLI_CELLS))
    def test_the_command_line_cells_keep_their_values(self, fault, capsys):
        digest, issued, completed, slots, witnessed = _CLI_CELLS[fault]
        assert cli.main(["--fault", fault]) == 0
        out = capsys.readouterr().out
        assert f"(seed=0)  digest: {digest}\n" in out
        assert f"  ops_issued: {issued}\n" in out
        assert f"  ops_completed: {completed}\n" in out
        assert f"  slots_committed: {slots}\n" in out
        assert f"certified ({witnessed} keys by version order" in out

    def test_execute_spec_is_simulate_spec_then_measure_run(self):
        spec = kv_scenario(seed=3, consensus="homega_hsigma")
        assert execute_spec(spec) == measure_run(spec, simulate_spec(spec))

    def test_a_kv_record_reports_kv_metrics_in_place_of_consensus_metrics(self):
        kv_keys = {"ops_issued", "ops_completed", "slots_committed", "linearizable"}
        consensus_keys = {"decided", "safe", "rounds", "broadcasts", "message_copies"}
        kv = execute_spec(kv_scenario()).metrics
        consensus = execute_spec(
            scenario("consensus")
            .homonyms([2, 2, 1])
            .detectors("HOmega", stabilization=10.0)
            .consensus("homega_majority")
            .horizon(600.0)
            .build()
        ).metrics
        assert kv_keys <= kv.keys() and not consensus_keys & kv.keys()
        assert consensus_keys <= consensus.keys() and not kv_keys & consensus.keys()

    def test_kv_system_appends_the_clients_and_scopes_the_oracles(self):
        spec = kv_scenario()
        replicas = spec.membership.build()
        schedule = spec.crashes.build(replicas)
        membership, factory, detectors, stop_when = kv_system(
            spec, replicas, schedule, {"HOmega": lambda services: services}
        )
        assert [membership.identity_of(p) for p in membership.processes] == [
            *(replicas.identity_of(p) for p in replicas.processes),
            "client-0",
            "client-1",
            "client-2",
        ]
        assert isinstance(factory(ProcessId(4), "grp2"), ReplicatedKVProgram)
        assert isinstance(factory(ProcessId(5), "client-0"), KVClientProgram)
        assert set(detectors) == {"HOmega"}
        assert isinstance(detectors["HOmega"], _ReplicaScopedDetector)
        services = DetectorServices(
            membership=membership,
            failure_pattern=None,
            clock=Clock(),
            rng_streams=None,
            schedule=print,
            poke_all=print,
        )
        scoped = detectors["HOmega"](services)
        assert scoped.membership is replicas
        assert scoped.failure_pattern.membership is replicas
        assert (scoped.clock, scoped.schedule, scoped.poke_all) == (
            services.clock,
            print,
            print,
        )
        assert not stop_when(None)

    def test_the_run_stops_once_every_client_is_done(self):
        simulation = simulate_spec(kv_scenario())
        assert simulation.clock.now < 600.0
        metrics = measure_run(kv_scenario(), simulation).metrics
        assert metrics["ops_completed"] == metrics["ops_issued"] == 9

        idle = kv_scenario(ops_per_client=0)
        replicas = idle.membership.build()
        *_, stop_when = kv_system(idle, replicas, idle.crashes.build(replicas), {})
        assert stop_when(None)
        assert simulate_spec(idle).clock.now < 600.0


class _DecidesItsProposal:
    """A consensus instance that decides its own proposal at once."""

    def __init__(self, proposal):
        self.proposal = proposal

    def setup(self, ctx):
        ctx.decide(self.proposal)


class _Overhearing(KVClientProgram):
    """A client that records the request id of every reply it hears."""

    def _on_reply(self, ctx, message):
        ctx.record("heard", message["request_id"])
        super()._on_reply(ctx, message)


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
