"""E10 — the replicated KV service under load and faults.

The consensus algorithms exist to power state-machine replication; E10 runs
them as one: a homonymous replica group (the Figure 8 algorithm driving a
slot-per-instance replicated log) serving GET/SET/CAS/DEL traffic from
closed-loop client populations, swept over client count × key skew × fault
envelope.  Every run's client history goes through the offline
linearizability checker, so the table reports *certified* correctness, not
just termination:

* **linearizability is unconditional** — crashes and message loss may slow
  or starve the service, but no run serves a non-linearizable history (the
  replication log inherits consensus agreement);
* **completion is what the envelope erodes** — with lossy links the paper's
  algorithms never retransmit, so some client requests are lost outright and
  the completion-rate column drops below 1;
* **latency feels the faults** — crashing a replica mid-run stretches the
  tail percentiles while leaving correctness untouched.
"""

from __future__ import annotations

from ..analysis.runner import ParameterSweep
from ..runtime import ScenarioSpec, lossy, minority, scenario
from .base import Call, Experiment, grouped

__all__ = ["run"]

DESCRIPTION = "Replicated KV service: client count × key skew × fault envelope, linearizability-certified"

#: The replica group: 5 replicas over 3 identifiers (homonymy like E9's).
_GROUPS = [2, 2, 1]
_CRASH_AT = 12.0
_LOSS = 0.05


def _make_spec(config: dict) -> ScenarioSpec:
    build = (
        scenario("E10")
        .homonyms(_GROUPS)
        .detectors("HOmega", stabilization=10.0)
        .kv(
            clients=config["clients"],
            ops_per_client=config["ops_per_client"],
            skew=config["skew"],
            think_time=1.0,
            key_space=6,
        )
        .horizon(600.0)
        .seed(config["seed"])
    )
    fault = config["fault"]
    if fault == "crash":
        build = build.crashes(minority(at=_CRASH_AT, count=1))
    elif fault == "lossy":
        build = build.network(lossy(_LOSS)).adversarial()
    return build.build()


def _work(quick: bool, seed: int) -> list[Call]:
    if quick:
        parameters = {
            "clients": [2, 4],
            "ops_per_client": [4],
            "skew": ["uniform", "zipf"],
            "fault": ["none", "crash", "lossy"],
        }
        repetitions = 1
    else:
        parameters = {
            "clients": [2, 4, 8],
            "ops_per_client": [6],
            "skew": ["uniform", "zipf"],
            "fault": ["none", "crash", "lossy"],
        }
        repetitions = 3
    sweep = ParameterSweep(parameters, repetitions=repetitions, base_seed=seed)
    return [("run_sweep", _make_spec, sweep)]


_COLUMNS, _table = grouped(
    ["clients", "skew", "fault"],
    ["completion_rate", "throughput", "latency_p50", "latency_p99", "linearizable"],
)


def _report(rows: list[dict]) -> tuple[list[dict], dict]:
    baseline = [row for row in rows if row["fault"] == "none"]
    summary = {
        "runs": len(rows),
        "all_linearizable": all(row["linearizable"] for row in rows),
        "violations": sum(row["lin_violations"] for row in rows),
        "baseline_all_complete": all(row["completion_rate"] == 1.0 for row in baseline),
        "completion_by_fault": {
            fault: _mean(
                [row["completion_rate"] for row in rows if row["fault"] == fault]
            )
            for fault in ("none", "crash", "lossy")
        },
    }
    return _table(rows), summary


def _mean(values: list[float]) -> float | None:
    if not values:
        return None
    return sum(values) / len(values)


run = Experiment("E10", DESCRIPTION, _COLUMNS, _work, _report)
