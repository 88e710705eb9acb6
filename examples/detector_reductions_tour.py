#!/usr/bin/env python3
"""A tour of the failure-detector reductions (Figure 5 of the paper).

The paper relates its new homonymous detector classes to the classical and
anonymous ones through explicit transformations.  This example:

1. prints the relation graph (who can be obtained from whom, and by which
   theorem),
2. runs two of the transformations end-to-end over a simulated system —
   Σ → HΣ without membership knowledge (Figure 2) and AP → HΣ (Lemma 3) —
   and checks the emulated detector against the HΣ class properties,
3. confirms Corollary 1: Σ, HΣ, and AΣ are equivalent when identifiers are
   unique.

Run with:  python examples/detector_reductions_tour.py
"""

from __future__ import annotations

from repro.detectors import CLASSES, DetectorClass
from repro.membership import anonymous_identities, unique_identities
from repro.reductions import (
    APToHSigma,
    SigmaToHSigmaUnknownMembership,
    equivalent_classes,
    is_stronger,
    paper_relations,
)
from repro.sim import AsynchronousTiming, CrashSchedule, Simulation, build_system
from repro.sim.failures import FailurePattern


def run_emulation(membership, program_factory, detectors, *, seed):
    crash_schedule = CrashSchedule.at_times({membership.processes[1]: 10.0})
    system = build_system(
        membership=membership,
        timing=AsynchronousTiming(min_latency=0.1, max_latency=1.5),
        program_factory=program_factory,
        crash_schedule=crash_schedule,
        detectors=detectors,
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=90.0)
    return CLASSES["HSigma"].judge(trace, FailurePattern(membership, crash_schedule))


def main() -> None:
    print("Relations proven or recalled by the paper (Figure 5):")
    for relation in paper_relations():
        arrow = f"{relation.source.value:>4} → {relation.target.value:<4}"
        print(f"  {arrow}  [{relation.model:^4}]  {relation.established_by}")

    print("\nReachability questions:")
    print("  AP strong enough for HΩ in anonymous systems?   ",
          is_stronger(DetectorClass.AP, DetectorClass.H_OMEGA, model="AAS"))
    print("  AΣ strong enough for HΩ in anonymous systems?   ",
          is_stronger(DetectorClass.A_SIGMA, DetectorClass.H_OMEGA, model="AAS"))

    print("\nCorollary 1 — equivalence classes with unique identifiers:")
    for group in equivalent_classes(model="AS"):
        print("  {" + ", ".join(sorted(c.value for c in group)) + "}")

    print("\nRunning Figure 2 (Σ → HΣ, membership unknown) on a 4-process system …")
    result = run_emulation(
        unique_identities(4),
        lambda pid, identity: SigmaToHSigmaUnknownMembership(period=1.0),
        {"Sigma": lambda s: CLASSES["Sigma"].oracle(s, stabilization_time=15.0)},
        seed=5,
    )
    print("  emulated HΣ satisfies validity/monotonicity/liveness/safety:",
          "ok" if result.ok else f"FAILED {result.violations}")

    print("Running Lemma 3 (AP → HΣ) on a 4-process anonymous system …")
    result = run_emulation(
        anonymous_identities(4),
        lambda pid, identity: APToHSigma(period=1.0),
        {"AP": lambda s: CLASSES["AP"].oracle(s, stabilization_time=15.0)},
        seed=6,
    )
    print("  emulated HΣ satisfies validity/monotonicity/liveness/safety:",
          "ok" if result.ok else f"FAILED {result.violations}")


if __name__ == "__main__":
    main()
