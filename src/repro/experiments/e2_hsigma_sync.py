"""E2 — The Figure 7 HΣ implementation in HSS[∅] satisfies all four properties.

Reproduces Theorem 6 empirically: in a synchronous homonymous system with
unknown membership, the step-wise ``IDENT`` exchange yields an HΣ detector —
validity, monotonicity, liveness, and safety all hold — for every homonymy
pattern and any number of crashes (including a majority of faulty processes,
which is what makes HΣ necessary for the Figure 9 consensus algorithm).
"""

from __future__ import annotations

from ..algorithms import HSigmaSynchronousProgram
from ..analysis.runner import ParameterSweep
from ..runtime.registry import CHECKS
from ..sim import Simulation, SynchronousTiming, build_system
from ..workloads.crashes import cascading_crashes
from ..workloads.homonymy import membership_with_distinct_ids
from .base import Call, Experiment, grouped

__all__ = ["run"]

DESCRIPTION = "HΣ in synchronous homonymous systems (Figure 7, Theorem 6)"


def _run_one(config: dict) -> dict:
    membership = membership_with_distinct_ids(config["n"], config["distinct_ids"])
    crash_count = min(config["crashes"], membership.size - 1)
    crash_schedule = cascading_crashes(
        membership,
        crash_count,
        first_at=2.4,
        interval=2.0,
        partial_broadcast_fraction=0.5 if config["crash_mid_broadcast"] else None,
    )
    steps = config["steps"]
    system = build_system(
        membership=membership,
        timing=SynchronousTiming(step=1.0),
        program_factory=lambda pid, identity: HSigmaSynchronousProgram(steps=steps),
        crash_schedule=crash_schedule,
        seed=config["seed"],
    )
    simulation = Simulation(system)
    trace = simulation.run(until=steps + 2.0)
    result = CHECKS.resolve("hsigma")(trace, simulation.failure_pattern)
    return {
        "properties_ok": result.ok,
        "violations": len(result.violations),
        "faulty": crash_count,
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
