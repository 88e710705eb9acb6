#!/usr/bin/env python3
"""Quickstart: consensus among homonymous processes in four short steps.

1. *Describe* the run with the fluent scenario builder: a homonymous
   membership (five processes, ids A, A, B, C, C), a crash at t=12, an HΩ
   failure-detector oracle, and the paper's Figure 8 consensus algorithm.
   The spec is checked against the paper's requirement table when it is
   made (try asking Figure 8 to survive 3 of 5 crashes — it refuses).
2. The result is *data*: a ScenarioSpec that round-trips through JSON, so
   runs can be logged, diffed, and shipped to worker processes.
3. *Execute* it through the Engine and read the structured RunRecord.
4. *Sweep* it: the same spec across many seeds, fanned out over two cores —
   identical rows to a serial run, just faster.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.runtime import Engine, ScenarioSpec, crashes_at, scenario

def main() -> None:
    # Step 1 — declare the scenario (membership, crashes, detectors, algorithm).
    spec = (
        scenario("quickstart")
        .identities(["A", "A", "B", "C", "C"])
        .crashes(crashes_at({4: 12.0}))
        .detectors("HOmega", stabilization=20.0)
        .consensus("homega_majority")
        .horizon(400.0)
        .seed(42)
        .build()
    )
    membership = spec.membership.build()
    print("membership:", membership.describe())
    print("I(Π) =", sorted(membership.identity_multiset()))
    print("crash schedule: process 4 crashes at t=12")

    # Step 2 — the spec is serializable data and round-trips exactly.
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    print("\nspec round-trips through JSON:", len(spec.to_json()), "bytes")

    # Step 3 — run it and read the structured record.
    record = Engine().run(spec)
    print("\none run (seed 42):")
    print(f"  decided     : {'ok' if record.metrics['decided'] else 'VIOLATED'}")
    print(f"  safe        : {'ok' if record.metrics['safe'] else 'VIOLATED'}")
    print(f"  decided in  : {record.metrics['rounds']} round(s), "
          f"last decision at t={record.metrics['decision_time']:.1f}")
    print(f"  cost        : {record.metrics['broadcasts']} broadcasts, "
          f"{record.metrics['message_copies']} link copies")

    # Step 4 — sweep the same scenario over 8 seeds on two cores.
    records = Engine(jobs=2).run_many(spec.with_seed(s) for s in range(8))
    decided = sum(1 for r in records if r.metrics["decided"])
    safe = all(r.metrics["safe"] for r in records)
    times = [
        r.metrics["decision_time"]
        for r in records
        if r.metrics["decision_time"] is not None
    ]
    mean_time = f"t={sum(times) / len(times):.1f}" if times else "n/a (none decided)"
    print(f"\nparallel sweep over seeds 0..7: {decided}/8 decided, "
          f"all safe: {'ok' if safe else 'VIOLATED'}, "
          f"mean decision time {mean_time}")


if __name__ == "__main__":
    main()
