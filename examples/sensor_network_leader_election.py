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

from repro.algorithms import OhpPollingProgram
from repro.detectors import CLASSES
from repro.membership import random_identities
from repro.sim import CrashSchedule, PartiallySynchronousTiming, Simulation, build_system
from repro.sim.failures import FailurePattern

H_LEADER, H_MULTIPLICITY = CLASSES["HOmega"].keys


def main() -> None:
    # A fleet of 9 motes whose identifiers are drawn from 3 hardware batches.
    fleet = random_identities(9, domain_size=3, seed=7, prefix="batch-")
    print("fleet:", fleet.describe())
    for process in fleet.processes:
        print(f"  mote {process.index}: identifier {fleet.identity_of(process)!r}")

    # Two motes die mid-run.
    victims = {fleet.processes[2]: 18.0, fleet.processes[5]: 26.0}
    crash_schedule = CrashSchedule.at_times(victims)
    print("\nbattery failures:", {p.index: t for p, t in victims.items()})

    # Partially synchronous network: GST and δ exist but are unknown to motes.
    timing = PartiallySynchronousTiming(
        gst=15.0, delta=1.0, min_latency=0.1, pre_gst_loss=0.2, pre_gst_max_latency=20.0
    )
    # A gentler timeout increment keeps the adaptive timeout from overshooting
    # when many pre-GST replies arrive late at once (the paper's +1-per-message
    # rule is the default; the increment size is an implementation knob).
    system = build_system(
        membership=fleet,
        timing=timing,
        program_factory=lambda pid, identity: OhpPollingProgram(timeout_increment=0.25),
        crash_schedule=crash_schedule,
        seed=11,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=240.0)
    pattern = FailurePattern(fleet, crash_schedule)

    print("\nfinal leader view of every surviving mote:")
    for process in sorted(pattern.correct):
        leader = trace.final_value(process, H_LEADER)
        multiplicity = trace.final_value(process, H_MULTIPLICITY)
        print(f"  mote {process.index}: leader batch {leader!r} with {multiplicity} surviving mote(s)")

    hp_result = CLASSES["DiamondHP"].judge(trace, pattern)
    homega_result = CLASSES["HOmega"].judge(trace, pattern)
    print("\n◇HP convergence:", "ok" if hp_result.ok else f"FAILED {hp_result.violations}")
    print("HΩ election    :", "ok" if homega_result.ok else f"FAILED {homega_result.violations}")
    if hp_result.stabilization_time is not None:
        print(f"converged at t={hp_result.stabilization_time:.1f} "
              f"(GST was 15.0, last crash at 26.0)")


if __name__ == "__main__":
    main()
