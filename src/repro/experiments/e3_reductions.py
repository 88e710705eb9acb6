"""E3 — Every reduction arrow of Figure 5 emulates its target class correctly.

For each reduction implemented from the paper (Figures 1, 2, 4; Theorem 3;
Lemmas 2–3; Observation 1), the experiment runs the reduction over an oracle
of the source class in the appropriate system model and validates the emulated
output trace with the target class's property checker.  It also confirms the
structural facts of the relation graph: Corollary 1 (Σ, HΣ, AΣ equivalent with
unique identifiers) and the AP → {◇HP, HΣ, HΩ} reachability in anonymous
systems that underpins the paper's comparison with prior work.
"""

from __future__ import annotations

from ..detectors import (
    APOracle,
    ASigmaOracle,
    DiamondHPOracle,
    HSigmaOracle,
    ScriptEOracle,
    SigmaOracle,
    check_diamond_hp,
    check_homega_election,
    check_hsigma,
    check_sigma,
)
from ..detectors.classes import DetectorClass
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
from ..sim import AsynchronousTiming, CrashSchedule, Simulation, build_system
from .base import Call, Experiment

__all__ = ["run"]

DESCRIPTION = "Reductions between detector classes (Figures 1-4, Theorems 1-4, Observation 1)"

_STABILIZATION = 15.0


def _run_reduction(membership, program_factory, detectors, checker, *, seed, horizon=90.0):
    crash_schedule = CrashSchedule.at_times(
        {membership.processes[1]: 10.0} if membership.size > 2 else {}
    )
    system = build_system(
        membership=membership,
        timing=AsynchronousTiming(min_latency=0.1, max_latency=1.5),
        program_factory=program_factory,
        crash_schedule=crash_schedule,
        detectors=detectors,
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=horizon)
    return checker(trace, simulation.failure_pattern)


def _reduction_cases(seed: int):
    """Yield (row description, callable returning a CheckResult)."""
    unique = unique_identities(4)
    homonymous = grouped_identities([2, 2, 1])
    anonymous = anonymous_identities(4)

    yield (
        {
            "paper_item": "Figure 1 (Theorem 1.1)",
            "reduction": "Σ → HΣ (known membership)",
            "model": "AS",
        },
        lambda: _run_reduction(
            unique,
            lambda pid, identity: SigmaToHSigmaWithMembership(
                unique.identity_multiset(), period=1.0
            ),
            {"Sigma": lambda s: SigmaOracle(s, stabilization_time=_STABILIZATION)},
            check_hsigma,
            seed=seed,
        ),
    )
    yield (
        {
            "paper_item": "Figure 2 (Theorem 1.2)",
            "reduction": "Σ → HΣ (unknown membership)",
            "model": "AS",
        },
        lambda: _run_reduction(
            unique,
            lambda pid, identity: SigmaToHSigmaUnknownMembership(period=1.0),
            {"Sigma": lambda s: SigmaOracle(s, stabilization_time=_STABILIZATION)},
            check_hsigma,
            seed=seed + 1,
        ),
    )
    yield (
        {
            "paper_item": "Figure 4 (Theorem 2)",
            "reduction": "HΣ → Σ (uses ℰ)",
            "model": "AS",
        },
        lambda: _run_reduction(
            unique,
            lambda pid, identity: HSigmaToSigma(period=1.0),
            {
                "HSigma": lambda s: HSigmaOracle(s, stabilization_time=_STABILIZATION),
                "ScriptE": lambda s: ScriptEOracle(s, stabilization_time=_STABILIZATION),
            },
            check_sigma,
            seed=seed + 2,
        ),
    )
    yield (
        {
            "paper_item": "Theorem 3",
            "reduction": "AΣ → HΣ",
            "model": "AAS",
        },
        lambda: _run_reduction(
            anonymous,
            lambda pid, identity: ASigmaToHSigma(period=1.0),
            {"ASigma": lambda s: ASigmaOracle(s, stabilization_time=_STABILIZATION)},
            check_hsigma,
            seed=seed + 3,
        ),
    )
    yield (
        {
            "paper_item": "Lemma 2 (Theorem 4)",
            "reduction": "AP → ◇HP",
            "model": "AAS",
        },
        lambda: _run_reduction(
            anonymous,
            lambda pid, identity: APToDiamondHP(period=1.0),
            {"AP": lambda s: APOracle(s, stabilization_time=_STABILIZATION)},
            check_diamond_hp,
            seed=seed + 4,
        ),
    )
    yield (
        {
            "paper_item": "Lemma 3 (Theorem 4)",
            "reduction": "AP → HΣ",
            "model": "AAS",
        },
        lambda: _run_reduction(
            anonymous,
            lambda pid, identity: APToHSigma(period=1.0),
            {"AP": lambda s: APOracle(s, stabilization_time=_STABILIZATION)},
            check_hsigma,
            seed=seed + 5,
        ),
    )
    yield (
        {
            "paper_item": "Observation 1",
            "reduction": "◇HP → HΩ",
            "model": "HAS",
        },
        lambda: _run_reduction(
            homonymous,
            lambda pid, identity: DiamondHPToHOmega(period=1.0),
            {"DiamondHP": lambda s: DiamondHPOracle(s, stabilization_time=_STABILIZATION)},
            check_homega_election,
            seed=seed + 6,
        ),
    )


def _run_case(config: dict) -> dict:
    """Run one reduction case by index (module-level so executors can fan out)."""
    for case_index, (description, runner) in enumerate(_reduction_cases(config["seed"])):
        if case_index == config["case"]:
            result = runner()
            row = dict(description)
            row["emulation_ok"] = result.ok
            row["stabilization_time"] = result.stabilization_time
            row["violations"] = len(result.violations)
            return row
    raise ValueError(f"unknown reduction case {config['case']!r}")


def _work(quick: bool, seed: int) -> list[Call]:
    case_count = sum(1 for _ in _reduction_cases(seed))
    return [("map", _run_case, [{"case": index, "seed": seed} for index in range(case_count)])]


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
