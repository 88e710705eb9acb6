"""E3 — Every reduction arrow of Figure 5 emulates its target class correctly.

For each reduction implemented from the paper (Figures 1, 2, 4; Theorem 3;
Lemmas 2–3; Observation 1), the experiment runs the reduction over an oracle
of the source class in the appropriate system model and validates the emulated
output trace with the target class's axioms.  It also confirms the
structural facts of the relation graph: Corollary 1 (Σ, HΣ, AΣ equivalent with
unique identifiers) and the AP → {◇HP, HΣ, HΩ} reachability in anonymous
systems that underpins the paper's comparison with prior work.
"""

from __future__ import annotations

from functools import partial

from ..detectors import CLASSES, DetectorClass
from ..reductions import (
    APToDiamondHP,
    APToHSigma,
    ASigmaToHSigma,
    DiamondHPToHOmega,
    HSigmaToSigma,
    SigmaToHSigmaUnknownMembership,
    SigmaToHSigmaWithMembership,
    equivalent_classes,
    is_stronger,
)
from ..membership import anonymous_identities, grouped_identities, unique_identities
from ..runtime.registry import CHECKS
from ..sim import AsynchronousTiming, CrashSchedule, Simulation, build_system
from .base import Call, Experiment

__all__ = ["run"]

DESCRIPTION = "Reductions between detector classes (Figures 1-4, Theorems 1-4, Observation 1)"

_STABILIZATION = 15.0
_HORIZON = 90.0

_UNIQUE = unique_identities(4)
_HOMONYMOUS = grouped_identities([2, 2, 1])
_ANONYMOUS = anonymous_identities(4)

#: (paper item, reduction, model, membership, program of one process, source
#: rows, target row).  Case ``i`` runs with seed ``seed + i``: the program over
#: the source rows' oracles, judged by the target row's axioms.
_CASES = (
    ("Figure 1 (Theorem 1.1)", "Σ → HΣ (known membership)", "AS", _UNIQUE,
     lambda: SigmaToHSigmaWithMembership(_UNIQUE.identity_multiset(), period=1.0),
     ("Sigma",), "HSigma"),
    ("Figure 2 (Theorem 1.2)", "Σ → HΣ (unknown membership)", "AS", _UNIQUE,
     lambda: SigmaToHSigmaUnknownMembership(period=1.0), ("Sigma",), "HSigma"),
    ("Figure 4 (Theorem 2)", "HΣ → Σ (uses ℰ)", "AS", _UNIQUE,
     lambda: HSigmaToSigma(period=1.0), ("HSigma", "ScriptE"), "Sigma"),
    ("Theorem 3", "AΣ → HΣ", "AAS", _ANONYMOUS,
     lambda: ASigmaToHSigma(period=1.0), ("ASigma",), "HSigma"),
    ("Lemma 2 (Theorem 4)", "AP → ◇HP", "AAS", _ANONYMOUS,
     lambda: APToDiamondHP(period=1.0), ("AP",), "DiamondHP"),
    ("Lemma 3 (Theorem 4)", "AP → HΣ", "AAS", _ANONYMOUS,
     lambda: APToHSigma(period=1.0), ("AP",), "HSigma"),
    ("Observation 1", "◇HP → HΩ", "HAS", _HOMONYMOUS,
     lambda: DiamondHPToHOmega(period=1.0), ("DiamondHP",), "HOmega"),
)  # fmt: skip


def _run_case(config: dict) -> dict:
    """Run one reduction case by index (module-level so executors can fan out)."""
    paper_item, reduction, model, membership, program, sources, target = _CASES[config["case"]]
    system = build_system(
        membership=membership,
        timing=AsynchronousTiming(min_latency=0.1, max_latency=1.5),
        program_factory=lambda pid, identity: program(),
        crash_schedule=CrashSchedule.at_times({membership.processes[1]: 10.0}),
        detectors={
            name: partial(CLASSES[name].oracle, stabilization_time=_STABILIZATION)
            for name in sources
        },
        seed=config["seed"] + config["case"],
    )
    simulation = Simulation(system)
    trace = simulation.run(until=_HORIZON)
    result = CHECKS.resolve(CLASSES[target].check)(trace, simulation.failure_pattern)
    return {
        "paper_item": paper_item,
        "reduction": reduction,
        "model": model,
        "emulation_ok": result.ok,
        "stabilization_time": result.stabilization_time,
        "violations": len(result.violations),
    }


def _work(quick: bool, seed: int) -> list[Call]:
    return [("map", _run_case, [{"case": index, "seed": seed} for index in range(len(_CASES))])]


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
