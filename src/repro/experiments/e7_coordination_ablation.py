"""E7 — Ablation of the Leaders' Coordination Phase.

The paper's main algorithmic contribution over the anonymous AΩ algorithm it
started from is the Leaders' Coordination Phase, which makes all homonymous
leaders eventually propose the same value (Lemma 7).  This experiment removes
it (:class:`~repro.consensus.family.NoCoordinationConsensus`) and
compares against the full Figure 8 algorithm on memberships where the leader
identifier is shared by several processes holding *different* proposals — the
exact situation the phase exists for.

Expected shape: the full algorithm terminates in every run and in few rounds;
the ablated variant stays safe (validity and agreement still hold) but needs
more rounds and misses the decision deadline in a fraction of the runs
(``rounds``: the highest round a process had reached when it learned the
decision; a relayed ``DECIDE`` records the receiver's round).
"""

from __future__ import annotations

from ..analysis.runner import ParameterSweep
from ..runtime import ScenarioSpec, execute_spec, scenario
from .base import Call, Experiment, grouped

__all__ = ["run"]

DESCRIPTION = "Figure 8 with vs without the Leaders' Coordination Phase (multi-leader runs)"

#: A deliberately tight horizon: runs that have not decided by then count as
#: failed terminations.  The full algorithm decides well before it.
_HORIZON = 150.0
_STABILIZATION = 10.0

_VARIANTS = {
    "with-coordination": "homega_majority",
    "without-coordination": "no_coordination",
}


def _spec(config: dict) -> ScenarioSpec:
    return (
        scenario("E7")
        .processes(config["n"])
        .distinct_ids(config["distinct_ids"])
        .detectors("HOmega", "HSigma", stabilization=_STABILIZATION)
        .consensus(_VARIANTS[config["variant"]])
        .horizon(_HORIZON)
        .seed(config["seed"])
        .build()
    )


def _run_one(config: dict) -> dict:
    return dict(execute_spec(_spec(config)).metrics)


def _work(quick: bool, seed: int) -> list[Call]:
    sweep = ParameterSweep(
        {
            "variant": ["with-coordination", "without-coordination"],
            "n": [6],
            "distinct_ids": [2, 3],
        },
        repetitions=12 if quick else 40,
        base_seed=seed,
    )
    return [("sweep", _run_one, sweep)]


_COLUMNS, _table = grouped(
    ["variant", "distinct_ids"], ["decided", "safe", "decision_time", "rounds"]
)


def _report(rows: list[dict]) -> tuple[list[dict], dict]:
    with_coordination = [row for row in rows if row["variant"] == "with-coordination"]
    without_coordination = [row for row in rows if row["variant"] == "without-coordination"]
    summary = {
        "runs_per_variant": len(with_coordination),
        "with_coordination_termination_rate": _rate(with_coordination, "decided"),
        "without_coordination_termination_rate": _rate(without_coordination, "decided"),
        "both_variants_always_safe": all(row["safe"] for row in rows),
        "mean_rounds_with_coordination": _mean_rounds(with_coordination),
        "mean_rounds_without_coordination": _mean_rounds(without_coordination),
    }
    return _table(rows), summary


def _rate(rows, key):
    return sum(1 for row in rows if row[key]) / len(rows) if rows else None


def _mean_rounds(rows):
    values = [row["rounds"] for row in rows if row["rounds"] is not None]
    return sum(values) / len(values) if values else None


run = Experiment("E7", DESCRIPTION, _COLUMNS, _work, _report)
