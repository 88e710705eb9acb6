"""E5 — Figure 9 consensus in HAS[HΩ, HΣ]: any number of crashes, n unknown.

Reproduces Theorem 8 empirically: the HΩ + HΣ algorithm decides correctly even
when a majority of processes crash (which Figure 8 cannot tolerate), without
knowing ``n`` or ``t``.  The sweep varies the homonymy pattern and the number
of crashes up to ``n − 1`` and reports the same correctness and cost figures
as E4, so the two algorithms can be compared where both apply.
"""

from __future__ import annotations

from ..analysis.runner import ParameterSweep
from ..runtime import cascading, execute_spec, scenario
from .base import Call, Experiment, grouped

__all__ = ["run"]

DESCRIPTION = "Consensus with HΩ and HΣ under any number of crashes (Figure 9, Theorem 8)"


def _run_one(config: dict) -> dict:
    crash_count = min(config["crashes"], config["n"] - 1)
    spec = (
        scenario("E5")
        .processes(config["n"])
        .distinct_ids(config["distinct_ids"])
        .crashes(cascading(crash_count, first_at=6.0, interval=4.0))
        .detectors("HOmega", "HSigma", stabilization=config["stabilization"])
        .consensus("homega_hsigma")
        .horizon(700.0)
        .seed(config["seed"])
        .build()
    )
    row = dict(execute_spec(spec).metrics)
    row["faulty"] = crash_count
    row["majority_crashed"] = crash_count > config["n"] / 2
    return row


def _work(quick: bool, seed: int) -> list[Call]:
    if quick:
        parameters = {
            "n": [5],
            "distinct_ids": [1, 3, 5],
            "crashes": [0, 2, 4],
            "stabilization": [20.0],
        }
        repetitions = 2
    else:
        parameters = {
            "n": [4, 6, 8],
            "distinct_ids": [1, 2, 4],
            "crashes": [0, 1, 3, 5, 7],
            "stabilization": [5.0, 20.0, 50.0],
        }
        repetitions = 4
    sweep = ParameterSweep(parameters, repetitions=repetitions, base_seed=seed)
    return [("sweep", _run_one, sweep)]


_COLUMNS, _table = grouped(
    ["n", "distinct_ids", "crashes", "stabilization"],
    ["decided", "safe", "decision_time", "rounds", "broadcasts"],
)


def _report(rows: list[dict]) -> tuple[list[dict], dict]:
    majority_crash_rows = [row for row in rows if row["majority_crashed"]]
    summary = {
        "runs": len(rows),
        "all_terminated": all(row["decided"] for row in rows),
        "all_safe": all(row["safe"] for row in rows),
        "runs_with_majority_crashed": len(majority_crash_rows),
        "majority_crashed_all_terminated": all(
            row["decided"] for row in majority_crash_rows
        )
        if majority_crash_rows
        else None,
    }
    return _table(rows), summary


run = Experiment("E5", DESCRIPTION, _COLUMNS, _work, _report)
