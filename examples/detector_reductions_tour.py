#!/usr/bin/env python3
"""A tour of the failure-detector reductions (Figure 5 of the paper).

The paper relates its new homonymous detector classes to the classical and
anonymous ones through explicit transformations.  This example:

1. prints the relation graph (who can be obtained from whom, and by which
   theorem),
2. lists the table of reductions and runs two of its rows end-to-end, each
   named by a scenario spec — Σ → HΣ without membership knowledge (Figure 2)
   and AP → HΣ (Lemma 3) — checking the emulated detector against the HΣ
   class properties,
3. confirms Corollary 1: Σ, HΣ, and AΣ are equivalent when identifiers are
   unique.

Run with:  python examples/detector_reductions_tour.py
"""

from __future__ import annotations

from repro.detectors import CLASSES, DetectorClass
from repro.reductions import REDUCTIONS, equivalent_classes, is_stronger, paper_relations
from repro.runtime import Engine, asynchronous, crashes_at, scenario


def run_emulation(name, builder, *, seed):
    """Run reduction ``name`` of the table over oracles of its source classes;
    the emulated detector is judged by its target class's axioms."""
    row = REDUCTIONS[name]
    check = CLASSES[row.target].check
    spec = (
        builder.timing(asynchronous(max_latency=1.5))
        .crashes(crashes_at({1: 10.0}))
        .detectors(*row.sources, stabilization=15.0)
        .program(name)
        .check(check)
        .horizon(90.0)
        .seed(seed)
        .build()
    )
    return Engine().run(spec).metrics[f"{check}_ok"]


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

    print("\nThe reductions the paper proves, by program name:")
    for row in REDUCTIONS.values():
        print(f"  {row.name:<22} {row.label:<28} {row.paper_item}")

    print("\nRunning Figure 2 (Σ → HΣ, membership unknown) on a 4-process system …")
    ok = run_emulation("sigma_to_hsigma", scenario().processes(4).unique_ids(), seed=5)
    print("  emulated HΣ satisfies validity/monotonicity/liveness/safety:",
          "ok" if ok else "FAILED")

    print("Running Lemma 3 (AP → HΣ) on a 4-process anonymous system …")
    ok = run_emulation("ap_to_hsigma", scenario().processes(4).anonymous(), seed=6)
    print("  emulated HΣ satisfies validity/monotonicity/liveness/safety:",
          "ok" if ok else "FAILED")


if __name__ == "__main__":
    main()
