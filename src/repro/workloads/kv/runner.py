"""Materialise and execute a KV scenario spec (the engine's KV branch).

:func:`execute_kv_spec` mirrors :func:`repro.runtime.engine.execute_spec` for
specs with a ``kv`` section: the scenario's membership becomes the *replica
group* (homonymy, crash schedule, and the chosen algorithm's assumptions all
judged against it), and ``kv.clients`` uniquely-named client processes are
appended to the simulated system.  Replicas and clients share one event
queue, one link model, and one crash schedule scope, so the full fault
envelope (loss, partitions, jitter, crashes, detector stabilization) applies
to the service end to end.

Detector oracles are *replica-scoped*: the spec's detector factories are
wrapped so each oracle sees only the replica membership and the replica
failure pattern — clients are traffic sources, not consensus participants,
and must not dilute leader election or quorum ground truth.  The engine
still attaches a (trivial) view to client processes, which the oracles
tolerate by construction.

Everything here is module-level and picklable, so KV specs fan out across
the pool executors exactly like consensus specs.
"""

from __future__ import annotations

from typing import Any

from ...membership import Membership
from ...sim import Simulation, build_system
from ...sim.failures import FailurePattern
from ...sim.system import DetectorServices
from .clients import ClientLoad, KVClientProgram
from .metrics import kv_metrics
from .replica import ReplicatedKVProgram

__all__ = ["execute_kv_spec"]


class _ReplicaScopedDetector:
    """Wraps a detector factory so the oracle sees only the replica group."""

    def __init__(self, factory, membership: Membership, pattern: FailurePattern):
        self._factory = factory
        self._membership = membership
        self._pattern = pattern

    def __call__(self, services: DetectorServices):
        scoped = DetectorServices(
            membership=self._membership,
            failure_pattern=self._pattern,
            clock=services.clock,
            rng_streams=services.rng_streams,
            schedule=services.schedule,
            poke_all=services.poke_all,
        )
        return self._factory(scoped)


def execute_kv_spec(spec) -> "Any":
    """Run one KV scenario and return its :class:`~repro.runtime.engine.RunRecord`."""
    from ...runtime.engine import RunRecord, fold_checks
    from ...runtime.registry import CONSENSUS, DETECTORS

    kv = spec.kv
    replica_membership = spec.membership.build()
    replica_count = replica_membership.size
    replica_identities = [
        replica_membership.identity_of(process) for process in replica_membership.processes
    ]
    client_names = [f"client-{index}" for index in range(kv.clients)]
    full_membership = Membership.of(replica_identities + client_names)

    # The crash schedule is authored over the replica group (clients are not
    # crash targets); replica pids keep their indices in the full membership,
    # so the same schedule is valid for both.
    schedule = spec.crashes.build(replica_membership)
    replica_pattern = FailurePattern(replica_membership, schedule)

    # Per-slot instances must not spam the trace with per-round records
    # (hundreds of slots per run).
    consensus_factory = CONSENSUS.resolve(kv.consensus).factory(
        replica_membership, **kv.consensus_params, record_outputs=False
    )
    load_options: dict[str, Any] = dict(
        ops=kv.ops_per_client,
        loop=kv.loop,
        think_time=kv.think_time,
        rate=kv.rate,
        key_space=kv.key_space,
        skew=kv.skew,
        zipf_s=kv.zipf_s,
    )
    if kv.mix is not None:
        load_options["mix"] = dict(kv.mix)
    load = ClientLoad(**load_options)

    # The stop condition is evaluated after every event: count the clients
    # still at work (a zero-op client never is) instead of polling them all.
    clients_at_work = kv.clients if load.ops else 0

    def client_finished() -> None:
        nonlocal clients_at_work
        clients_at_work -= 1

    def factory(pid, identity):
        if pid.index < replica_count:
            return ReplicatedKVProgram(
                consensus_factory=consensus_factory,
                read_mode=kv.read_mode,
                sync_period=kv.sync_period,
                max_slots=kv.max_slots,
            )
        return KVClientProgram(
            client_name=str(identity), load=load, on_finished=client_finished
        )

    detectors = {
        detector.name: _ReplicaScopedDetector(
            DETECTORS.resolve(detector.name)(detector.params),
            replica_membership,
            replica_pattern,
        )
        for detector in spec.detectors
    }

    system = build_system(
        membership=full_membership,
        timing=spec.timing.build(),
        program_factory=factory,
        crash_schedule=schedule,
        detectors=detectors,
        links=None if spec.network.is_reliable else spec.network.build(),
        seed=spec.seed,
        name=spec.name,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=spec.horizon, stop_when=lambda sim: not clients_at_work)

    metrics = kv_metrics(trace)
    metrics.update(fold_checks(trace, simulation.failure_pattern, spec.checks))
    return RunRecord(
        scenario=spec.name,
        seed=spec.seed,
        config=spec.to_dict(),
        metrics=metrics,
        digest=simulation.digest,
    )
