"""E2 — The Figure 7 HΣ implementation in HSS[∅] satisfies all four properties.

Reproduces Theorem 6 empirically: in a synchronous homonymous system with
unknown membership, the step-wise ``IDENT`` exchange yields an HΣ detector —
validity, monotonicity, liveness, and safety all hold — for every homonymy
pattern and any number of crashes (including a majority of faulty processes,
which is what makes HΣ necessary for the Figure 9 consensus algorithm).
"""

from __future__ import annotations

from ..analysis.runner import ParameterSweep
from ..runtime import ScenarioSpec, cascading, scenario, synchronous
from .base import Call, Experiment, grouped, simulate_and_check

__all__ = ["run"]

DESCRIPTION = "HΣ in synchronous homonymous systems (Figure 7, Theorem 6)"


def _spec(config: dict) -> ScenarioSpec:
    return (
        scenario("E2")
        .processes(config["n"])
        .distinct_ids(config["distinct_ids"])
        .timing(synchronous(1.0))
        .crashes(
            cascading(
                config["crashes"],  # capped at n − 1
                first_at=2.4,
                interval=2.0,
                partial_broadcast_fraction=0.5 if config["crash_mid_broadcast"] else None,
            )
        )
        .program("hsigma_sync", steps=config["steps"])
        .check("hsigma")
        .horizon(config["steps"] + 2.0)
        .seed(config["seed"])
        .build()
    )


def _run_one(config: dict) -> dict:
    simulation, (result,) = simulate_and_check(_spec(config))
    return {
        "properties_ok": result.ok,
        "violations": len(result.violations),
        "faulty": len(simulation.failure_pattern.faulty),
    }


def _work(quick: bool, seed: int) -> list[Call]:
    if quick:
        parameters = {
            "n": [5],
            "distinct_ids": [1, 3, 5],
            "crashes": [0, 2, 4],
            "crash_mid_broadcast": [False],
            "steps": [14],
        }
        repetitions = 1
    else:
        parameters = {
            "n": [4, 6, 8],
            "distinct_ids": [1, 2, 4],
            "crashes": [0, 1, 3, 5],
            "crash_mid_broadcast": [False, True],
            "steps": [20],
        }
        repetitions = 2
    sweep = ParameterSweep(parameters, repetitions=repetitions, base_seed=seed)
    return [("sweep", _run_one, sweep)]


_COLUMNS, _table = grouped(
    ["n", "distinct_ids", "crashes", "crash_mid_broadcast"], ["properties_ok", "violations"]
)


def _report(rows: list[dict]) -> tuple[list[dict], dict]:
    summary = {
        "runs": len(rows),
        "all_properties_hold": all(row["properties_ok"] for row in rows),
    }
    return _table(rows), summary


run = Experiment("E2", DESCRIPTION, _COLUMNS, _work, _report)
