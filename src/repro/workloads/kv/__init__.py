"""A replicated key-value service workload over the paper's consensus.

This package promotes ``examples/replicated_log.py`` into a real subsystem:
a :class:`ReplicatedKV` state machine replicated through repeated consensus
instances (slot-per-instance, any registry algorithm), simulated open- and
closed-loop client populations with configurable key skew, an offline
linearizability checker, and client-visible service metrics (latency
percentiles, throughput, staleness).

The declarative entry point is the scenario builder's ``.kv()`` section::

    from repro.runtime import Engine, scenario

    spec = (
        scenario("kv-demo")
        .homonyms([2, 2, 1])
        .detectors("HOmega", stabilization=10.0)
        .kv(clients=4, ops_per_client=6, skew="zipf")
        .horizon(600.0)
        .build()
    )
    record = Engine().run(spec)
    assert record.metrics["linearizable"]

``python -m repro.workloads.kv`` runs one quick certified scenario from the
command line and exits non-zero unless the history linearizes (the CI gate).
"""

from .clients import DEFAULT_MIX, ClientLoad, KVClientProgram
from .commands import (
    ApplyResult,
    ReplicatedKV,
    decode_command,
    encode_command,
    request_id,
    requester,
)
from .linearizability import (
    KVLinearizabilityResult,
    KVOperation,
    check_history,
    check_kv_linearizable,
    history_from_trace,
)
from .metrics import kv_metrics, percentile
from .replica import ReplicatedKVProgram

__all__ = [
    "ApplyResult",
    "ClientLoad",
    "DEFAULT_MIX",
    "KVClientProgram",
    "KVLinearizabilityResult",
    "KVOperation",
    "ReplicatedKV",
    "ReplicatedKVProgram",
    "check_history",
    "check_kv_linearizable",
    "decode_command",
    "encode_command",
    "history_from_trace",
    "kv_metrics",
    "percentile",
    "request_id",
    "requester",
]
