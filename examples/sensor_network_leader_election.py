#!/usr/bin/env python3
"""Sensor network leader election with shared identifiers (Figure 6, no oracle).

The paper motivates homonymy with sensor networks: guaranteeing unique
identifiers across a fleet of cheap motes is often impossible, so several
motes end up sharing an identifier (e.g. a hardware batch number).  This
example runs the paper's Figure 6 algorithm — the ◇HP / HΩ implementation for
partially synchronous systems — on such a fleet:

* 9 motes drawn from 3 hardware batches (so each identifier is shared),
* two motes die during the run (battery failure),
* links become timely only after an unknown stabilization time (GST).

The output shows each mote's elected leader identifier and multiplicity
converging to the smallest surviving batch identifier, with the exact number
of surviving motes of that batch — which is all that HΩ promises, and exactly
what the consensus layer of the paper needs.

Run with:  python examples/sensor_network_leader_election.py
"""

from __future__ import annotations

from repro.detectors import CLASSES
from repro.runtime import (
    MembershipSpec,
    crashes_at,
    measure_run,
    partial_sync,
    scenario,
    simulate_spec,
)

H_LEADER, H_MULTIPLICITY = CLASSES["HOmega"].keys


def main() -> None:
    # A fleet of 9 motes whose identifiers are drawn from 3 hardware batches,
    # two of which die mid-run.
    victims = {2: 18.0, 5: 26.0}
    spec = (
        scenario("sensor-fleet")
        .membership(MembershipSpec("random", n=9, domain_size=3, seed=7, prefix="batch-"))
        # Partially synchronous network: GST and δ exist but are unknown to motes.
        .timing(
            partial_sync(
                15.0, 1.0, min_latency=0.1, pre_gst_loss=0.2, pre_gst_max_latency=20.0
            )
        )
        .crashes(crashes_at(victims))
        # A gentler timeout increment keeps the adaptive timeout from
        # overshooting when many pre-GST replies arrive late at once (the
        # paper's +1-per-message rule is the default; the increment size is an
        # implementation knob).
        .program("ohp_polling", timeout_increment=0.25)
        .check("diamond_hp", "homega")
        .horizon(240.0)
        .seed(11)
        .build()
    )
    fleet = spec.membership.build()
    print("fleet:", fleet.describe())
    for process in fleet.processes:
        print(f"  mote {process.index}: identifier {fleet.identity_of(process)!r}")
    print("\nbattery failures:", victims)

    simulation = simulate_spec(spec)
    metrics = measure_run(spec, simulation).metrics
    trace, pattern = simulation.trace, simulation.failure_pattern

    print("\nfinal leader view of every surviving mote:")
    for process in sorted(pattern.correct):
        leader = trace.final_value(process, H_LEADER)
        multiplicity = trace.final_value(process, H_MULTIPLICITY)
        print(f"  mote {process.index}: leader batch {leader!r} with {multiplicity} surviving mote(s)")

    print("\n◇HP convergence:", "ok" if metrics["diamond_hp_ok"] else "FAILED")
    print("HΩ election    :", "ok" if metrics["homega_ok"] else "FAILED")
    if metrics["diamond_hp_time"] is not None:
        print(f"converged at t={metrics['diamond_hp_time']:.1f} "
              f"(GST was 15.0, last crash at 26.0)")


if __name__ == "__main__":
    main()
