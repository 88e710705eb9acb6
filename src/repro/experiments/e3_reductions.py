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
from ..errors import ConfigurationError
from ..reductions import ANY_MODEL, REDUCTIONS, Reduction, equivalent_classes, is_stronger
from ..runtime import MembershipSpec, ScenarioSpec, asynchronous, crashes_at, scenario
from .base import Call, Experiment

__all__ = ["run"]

DESCRIPTION = "Reductions between detector classes (Figures 1-4, Theorems 1-4, Observation 1)"

_STABILIZATION = 15.0
_HORIZON = 90.0

#: The system a row runs on, by the model it runs in.
_SYSTEMS = {
    "AS": MembershipSpec("unique", n=4),
    "AAS": MembershipSpec("anonymous", n=4),
    "HAS": MembershipSpec("groups", groups=(2, 2, 1)),
}


def _model(row: Reduction) -> str:
    """The model ``row`` runs in: a relation that holds in any model is run in
    the most general one."""
    model = "HAS" if row.model == ANY_MODEL else row.model
    if model not in _SYSTEMS:
        raise ConfigurationError(
            f"reduction {row.name!r} holds in model {row.model!r}; "
            f"E3 runs {sorted(_SYSTEMS)} and {ANY_MODEL!r}"
        )
    return model


def _spec(config: dict) -> ScenarioSpec:
    """Row ``config["reduction"]`` of the table over its source rows' oracles,
    judged by its target row's axioms; one process crashes before they
    stabilise.  Case ``i`` runs with seed ``seed + i``."""
    row = REDUCTIONS[config["reduction"]]
    membership = _SYSTEMS[_model(row)]
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


def _work(quick: bool, seed: int) -> list[Call]:
    # Every registered row, in the table's order.
    configs = [
        {"case": case, "reduction": name, "seed": seed} for case, name in enumerate(REDUCTIONS)
    ]
    return [("run_sweep", _spec, configs)]


def _case(row: dict) -> dict:
    """One table row: the reduction a run's config names, and its check's verdict."""
    reduction = REDUCTIONS[row["reduction"]]
    check = CLASSES[reduction.target].check
    return {
        "paper_item": reduction.paper_item,
        "reduction": reduction.label,
        "model": _model(reduction),
        "emulation_ok": row[f"{check}_ok"],
        "stabilization_time": row[f"{check}_time"],
        "violations": row[f"{check}_violations"],
    }


def _report(rows: list[dict]) -> tuple[list[dict], dict]:
    """One row per reduction case, plus the relation-graph checks."""
    rows = [_case(row) for row in rows]
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
