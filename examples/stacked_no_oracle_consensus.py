#!/usr/bin/env python3
"""End-to-end consensus with no oracle: Figure 6 stacked under Figure 8.

The paper's headline combination: HΩ — unlike its anonymous counterpart AΩ —
is implementable under partial synchrony, so stacking the Figure 6
implementation underneath the Figure 8 consensus algorithm yields consensus in
a homonymous, partially synchronous system with a majority of correct
processes and *no failure-detector oracle anywhere*: everything below the
application is ordinary message passing.

Run with:  python examples/stacked_no_oracle_consensus.py
"""

from __future__ import annotations

from repro.runtime import crashes_at, measure_run, partial_sync, scenario, simulate_spec

CHECKS = ("consensus_validity", "consensus_agreement", "consensus_termination")


def main() -> None:
    spec = (
        scenario("stacked-no-oracle")
        .homonyms([2, 2, 1])
        # Eventually timely links: before GST=20 messages may be arbitrarily
        # slow (but are not lost — Figure 8 sends each message exactly once).
        .timing(
            partial_sync(
                20.0, 1.0, min_latency=0.1, pre_gst_loss=0.0, pre_gst_max_latency=60.0
            )
        )
        .crashes(crashes_at({3: 14.0}))
        # Each process runs the Figure 6 polling detector and the Figure 8
        # consensus algorithm side by side; the consensus layer queries the
        # detector through the "HOmega" view the polling program publishes.
        .program("ohp_polling", detector_name="HOmega", record_outputs=False)
        .consensus("homega_majority")
        .check(*CHECKS)
        .horizon(600.0)
        .seed(19)
        .build()
    )
    print("membership:", spec.membership.build().describe())
    print("crash: process 3 at t=14")

    simulation = simulate_spec(spec)
    metrics = measure_run(spec, simulation).metrics
    trace = simulation.trace
    print("\ndecisions:")
    for process, decision in sorted(trace.decisions.items()):
        print(f"  process {process.index} decided {decision.value!r} at t={decision.time:.1f}")
    print()
    for check in CHECKS:
        label = check.removeprefix("consensus_")
        print(f"{label:<12}: {'ok' if metrics[f'{check}_ok'] else 'VIOLATED'}")
    print(f"GST was 20.0; last decision at t={metrics['decision_time']:.1f}")
    print(f"total message cost: {trace.broadcast_invocations} broadcasts "
          f"({trace.message_copies_sent} link copies), "
          f"including the detector's polling traffic")


if __name__ == "__main__":
    main()
