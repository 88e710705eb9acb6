"""What a KV scenario spec adds to a simulator run.

:func:`repro.runtime.engine.simulate_spec` builds, runs and measures every
simulator scenario; for a spec with a ``kv`` section it asks
:func:`kv_system` for the four things the service changes.  The scenario's
membership is the *replica group* (homonymy, crash schedule, and the chosen
algorithm's assumptions all judged against it), and ``kv.clients``
uniquely-named client processes are appended to the simulated system.
Replicas and clients share one event queue, one link model, and one crash
schedule scope, so the full fault envelope (loss, partitions, jitter,
crashes, detector stabilization) applies to the service end to end.

Who hears what: announcements go to the group, answers go to the asker's
identifier.  Replicas hold indices ``range(r)``; consensus slot traffic,
``KV_SYNC`` and a client's ``KV_REQUEST`` are multicast to that range.  A
``KV_REPLY`` goes to the processes carrying the requesting client's
identifier, and a ``KV_COMMIT`` to those carrying the identifier of the
replica whose ``KV_SYNC`` it answers; the programs look both up in one
identifier → indices mapping built from the full membership.  No copy
reaches a process that has no handler for it.

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

from typing import Any, Callable, Mapping

from ...membership import Membership
from ...sim.failures import CrashSchedule, FailurePattern
from ...sim.system import DetectorServices
from .clients import ClientLoad, KVClientProgram
from .replica import ReplicatedKVProgram

__all__ = ["kv_system"]


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


def kv_system(
    spec,
    replica_membership: Membership,
    schedule: CrashSchedule,
    detectors: Mapping[str, Any],
) -> tuple[Membership, Callable, dict, Callable]:
    """``(membership, program_factory, detectors, stop_when)`` of one KV run.

    ``replica_membership`` and ``schedule`` are the spec's membership and
    crash schedule as the engine built them, and ``detectors`` its detector
    factories.  The membership returned appends the clients to the replica
    group, the factory builds a replica or a client by index, the detectors
    are the given ones scoped to the replica group, and ``stop_when`` holds
    once every client is done.
    """
    from ...runtime.registry import CONSENSUS

    kv = spec.kv
    replica_count = replica_membership.size
    replica_identities = [
        replica_membership.identity_of(process) for process in replica_membership.processes
    ]
    client_names = [f"client-{index}" for index in range(kv.clients)]
    full_membership = Membership.of(replica_identities + client_names)

    # The crash schedule is authored over the replica group (clients are not
    # crash targets); replica pids keep their indices in the full membership,
    # so the same schedule is valid for both.
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

    replicas = range(replica_count)
    holders = {
        identity: tuple(
            process.index for process in full_membership.processes_with_identity(identity)
        )
        for identity in full_membership.distinct_identities
    }

    def factory(pid, identity):
        if pid.index < replica_count:
            return ReplicatedKVProgram(
                consensus_factory=consensus_factory,
                replicas=replicas,
                holders=holders,
                read_mode=kv.read_mode,
                sync_period=kv.sync_period,
                max_slots=kv.max_slots,
            )
        return KVClientProgram(
            client_name=str(identity),
            load=load,
            replicas=replicas,
            on_finished=client_finished,
        )

    scoped = {
        name: _ReplicaScopedDetector(detector, replica_membership, replica_pattern)
        for name, detector in detectors.items()
    }
    return full_membership, factory, scoped, lambda sim: not clients_at_work
