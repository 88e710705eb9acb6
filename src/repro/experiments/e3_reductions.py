"""E3 — Every reduction arrow of Figure 5 emulates its target class correctly.

For each row of ``repro.reductions.REDUCTIONS`` (Figures 1, 2, 4; Theorem 3;
Lemmas 2–3; Observation 1), the experiment runs the reduction over oracles of
its source classes in the appropriate system model and validates the emulated
output trace with the target class's axioms.  It also confirms the
structural facts of the relation graph: Corollary 1 (Σ, HΣ, AΣ equivalent with
unique identifiers) and the AP → {◇HP, HΣ, HΩ} reachability in anonymous
systems that underpins the paper's comparison with prior work.
"""

from __future__ import annotations

from ..detectors import CLASSES, DetectorClass
from ..reductions import ANY_MODEL, REDUCTIONS, equivalent_classes, is_stronger
from ..runtime import MembershipSpec, ScenarioSpec, asynchronous, crashes_at, scenario
from .base import Call, Experiment, simulate_and_check

__all__ = ["run"]

DESCRIPTION = "Reductions between detector classes (Figures 1-4, Theorems 1-4, Observation 1)"

_STABILIZATION = 15.0
_HORIZON = 90.0

#: The model a row's relation holds in → (the table's name for the model the
#: row runs in, the system it runs on): a relation that holds in any model is
#: run in the most general one.
_SYSTEMS = {
    "AS": ("AS", MembershipSpec("unique", n=4)),
    "AAS": ("AAS", MembershipSpec("anonymous", n=4)),
    ANY_MODEL: ("HAS", MembershipSpec("groups", groups=(2, 2, 1))),
}


def _spec(config: dict) -> ScenarioSpec:
    """Row ``config["case"]`` of the table over its source rows' oracles, judged
    by its target row's axioms; one process crashes before they stabilise.
    Case ``i`` runs with seed ``seed + i``."""
    row = list(REDUCTIONS.values())[config["case"]]
    _, membership = _SYSTEMS[row.model]
    return (
        scenario(f"E3-{row.name}")
        .membership(membership)
        .timing(asynchronous(max_latency=1.5))
        .crashes(crashes_at({1: 10.0}))
        .detectors(*row.sources, stabilization=_STABILIZATION, noise_period=None)
        .program(row.name, **row.params_in(membership.build()))
        .check(CLASSES[row.target].check)
        .horizon(_HORIZON)
        .seed(config["seed"] + config["case"])
        .build()
    )


def _run_case(config: dict) -> dict:
    """Run one reduction case by index (module-level so executors can fan out)."""
    spec = _spec(config)
    row = REDUCTIONS[spec.program]
    _, (result,) = simulate_and_check(spec)
    return {
        "paper_item": row.paper_item,
        "reduction": row.label,
        "model": _SYSTEMS[row.model][0],
        "emulation_ok": result.ok,
        "stabilization_time": result.stabilization_time,
        "violations": len(result.violations),
    }


def _work(quick: bool, seed: int) -> list[Call]:
    # Every registered row, in the table's order.
    return [("map", _run_case, [{"case": case, "seed": seed} for case in range(len(REDUCTIONS))])]


def _report(rows: list[dict]) -> tuple[list[dict], dict]:
    """The reduction rows as they are, plus the relation-graph checks."""
    sigma_group = next(
        (group for group in equivalent_classes(model="AS") if DetectorClass.SIGMA in group),
        frozenset(),
    )
    summary = {
        "all_reductions_ok": all(row["emulation_ok"] for row in rows),
        "corollary_1_sigma_hsigma_asigma_equivalent": {
            DetectorClass.SIGMA,
            DetectorClass.H_SIGMA,
            DetectorClass.A_SIGMA,
        }
        <= sigma_group,
        "ap_reaches_homega_in_aas": is_stronger(
            DetectorClass.AP, DetectorClass.H_OMEGA, model="AAS"
        ),
        "asigma_does_not_reach_homega_in_aas": not is_stronger(
            DetectorClass.A_SIGMA, DetectorClass.H_OMEGA, model="AAS"
        ),
    }
    return rows, summary


run = Experiment(
    "E3",
    DESCRIPTION,
    ("paper_item", "reduction", "model", "emulation_ok", "stabilization_time", "violations"),
    _work,
    _report,
)
