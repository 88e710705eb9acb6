"""E1 — Convergence of the Figure 6 ◇HP / HΩ implementation in HPS[∅].

Reproduces the paper's Theorem 5 and Corollary 2 empirically: the polling
algorithm converges to ``h_trusted = I(Correct)`` (and the derived HΩ output)
in partially synchronous homonymous systems with unknown membership, for every
homonymy pattern and crash schedule, and regardless of the (unknown) GST and
δ.  The sweep also records how the convergence time scales with GST and δ and
how far the adaptive timeout grows, and contrasts the fixed-timeout ablation
(which fails to converge when the timeout is below the real latency bound).
"""

from __future__ import annotations

from ..analysis.runner import ParameterSweep
from ..runtime import ScenarioSpec, minority, partial_sync, scenario
from .base import Call, Experiment, grouped, simulate_and_check

__all__ = ["run"]

DESCRIPTION = "◇HP / HΩ convergence under partial synchrony (Figure 6, Theorem 5, Corollary 2)"


def _spec(config: dict) -> ScenarioSpec:
    gst = config["gst"]
    return (
        scenario("E1")
        .processes(config["n"])
        .distinct_ids(config["distinct_ids"])
        .timing(
            partial_sync(
                gst,
                config["delta"],
                pre_gst_loss=0.4,
                pre_gst_max_latency=4 * gst + 10.0,
            )
        )
        .crashes(minority(at=gst / 2 + 1.0))
        .program("ohp_polling", fixed_timeout=config["fixed_timeout"])
        .check("diamond_hp", "homega")
        .horizon(gst * 4 + 120.0)
        .seed(config["seed"])
        .build()
    )


def _run_one(config: dict) -> dict:
    simulation, (hp_result, homega_result) = simulate_and_check(_spec(config))
    trace, pattern = simulation.trace, simulation.failure_pattern
    timeouts = [trace.final_value(process, "ohp.timeout") for process in pattern.correct]
    return {
        "converged": hp_result.ok,
        "homega_ok": homega_result.ok,
        "convergence_time": hp_result.stabilization_time if hp_result.ok else None,
        "final_timeout": max((t for t in timeouts if t is not None), default=None),
    }


def _work(quick: bool, seed: int) -> list[Call]:
    if quick:
        parameters = {
            "n": [5],
            "distinct_ids": [1, 3, 5],
            "gst": [10.0, 30.0],
            "delta": [1.0, 3.0],
            "fixed_timeout": [False],
        }
        repetitions = 1
    else:
        parameters = {
            "n": [4, 6, 8],
            "distinct_ids": [1, 2, 4],
            "gst": [10.0, 30.0, 60.0],
            "delta": [0.5, 1.0, 3.0],
            "fixed_timeout": [False],
        }
        repetitions = 3
    # The fixed-timeout ablation: one configuration where the static timeout is
    # below the actual latency bound, expected NOT to converge.
    ablation = {
        "n": [4],
        "distinct_ids": [2],
        "gst": [0.0],
        "delta": [4.0],
        "fixed_timeout": [True],
    }
    return [
        ("sweep", _run_one, ParameterSweep(parameters, repetitions=repetitions, base_seed=seed)),
        ("sweep", _run_one, ParameterSweep(ablation, repetitions=1, base_seed=seed + 1_000)),
    ]


_COLUMNS, _table = grouped(
    ["n", "distinct_ids", "gst", "delta", "fixed_timeout"],
    ["converged", "homega_ok", "convergence_time", "final_timeout"],
)


def _report(rows: list[dict]) -> tuple[list[dict], dict]:
    adaptive_rows = [row for row in rows if not row["fixed_timeout"]]
    summary = {
        "adaptive_runs": len(adaptive_rows),
        "adaptive_all_converged": all(row["converged"] for row in adaptive_rows),
        "adaptive_all_homega_ok": all(row["homega_ok"] for row in adaptive_rows),
        "fixed_timeout_converged": any(
            row["converged"] for row in rows if row["fixed_timeout"]
        ),
    }
    return _table(rows), summary


run = Experiment("E1", DESCRIPTION, _COLUMNS, _work, _report)
