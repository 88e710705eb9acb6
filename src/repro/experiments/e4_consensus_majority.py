"""E4 — Figure 8 consensus in HAS[t < n/2, HΩ]: correctness and cost.

Reproduces Theorem 7 empirically: across homonymy patterns, crash schedules
(up to the largest minority), and detector stabilization times, every run
satisfies validity, agreement, and termination; the sweep also reports the
decision latency, the number of rounds, and the number of broadcasts, which
is how the cost of homonymy shows up.  ``rounds`` is the highest round a
process had reached when it learned the decision: a process that learns it
from a relayed ``DECIDE`` records its own round, not the decider's.
"""

from __future__ import annotations

from ..analysis.runner import ParameterSweep
from ..runtime import ScenarioSpec, execute_spec, leaders, minority, no_crashes, scenario
from .base import Call, Experiment, grouped

__all__ = ["run"]

DESCRIPTION = "Consensus with HΩ and a majority of correct processes (Figure 8, Theorem 7)"

_CRASHES = {"none": no_crashes(), "minority": minority(at=8.0), "leaders": leaders(at=8.0)}


def _spec(config: dict) -> ScenarioSpec:
    return (
        scenario("E4")
        .processes(config["n"])
        .distinct_ids(config["distinct_ids"])
        .crashes(_CRASHES[config["crash_mode"]])
        .detectors("HOmega", "HSigma", stabilization=config["stabilization"])
        .consensus("homega_majority")
        .horizon(600.0)
        .seed(config["seed"])
        .build()
    )


def _run_one(config: dict) -> dict:
    return dict(execute_spec(_spec(config)).metrics)


def _work(quick: bool, seed: int) -> list[Call]:
    if quick:
        parameters = {
            "n": [5],
            "distinct_ids": [1, 3, 5],
            "crash_mode": list(_CRASHES),
            "stabilization": [20.0],
        }
        repetitions = 2
    else:
        parameters = {
            "n": [5, 7, 9],
            "distinct_ids": [1, 2, 5],
            "crash_mode": list(_CRASHES),
            "stabilization": [5.0, 20.0, 50.0],
        }
        repetitions = 5
    sweep = ParameterSweep(parameters, repetitions=repetitions, base_seed=seed)
    return [("sweep", _run_one, sweep)]


_COLUMNS, _table = grouped(
    ["n", "distinct_ids", "crash_mode", "stabilization"],
    ["decided", "safe", "decision_time", "rounds", "broadcasts"],
)


def _report(rows: list[dict]) -> tuple[list[dict], dict]:
    summary = {
        "runs": len(rows),
        "all_terminated": all(row["decided"] for row in rows),
        "all_safe": all(row["safe"] for row in rows),
    }
    return _table(rows), summary


run = Experiment("E4", DESCRIPTION, _COLUMNS, _work, _report)
