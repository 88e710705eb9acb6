#!/usr/bin/env python3
"""A tiny replicated log built on repeated homonymous consensus.

The classic application of consensus is state-machine replication: replicas
agree on the command to place in each log slot, in order.  This example builds
a three-slot replicated log on top of the paper's Figure 8 algorithm in a
homonymous system — each slot is one consensus instance whose proposals are
the commands the replicas happen to have received from clients.

It demonstrates how a downstream user composes the library: memberships and
crash schedules from :mod:`repro.workloads`, one
:class:`~repro.workloads.scenarios.ConsensusScenario` per slot, and the
validator to certify every slot.

Run with:  python examples/replicated_log.py
"""

from __future__ import annotations

from repro.membership import grouped_identities
from repro.runtime import CONSENSUS
from repro.workloads import minority_crashes, no_crashes
from repro.workloads.scenarios import ConsensusScenario


def agree_on_slot(membership, slot, client_commands, crash_schedule, seed):
    """Run one consensus instance for log slot ``slot`` and return its outcome."""
    proposals = {
        process: client_commands[process.index % len(client_commands)]
        for process in membership.processes
    }
    scenario = ConsensusScenario(
        membership=membership,
        # The registry entry's factory (not a lambda): picklable, RunCache-eligible.
        consensus_factory=CONSENSUS.resolve("homega_majority").factory(membership),
        proposals=proposals,
        crash_schedule=crash_schedule,
        detector_stabilization=10.0,
        horizon=400.0,
        seed=seed,
        name=f"log-slot-{slot}",
    )
    trace, pattern, verdict = scenario.run()
    return proposals, verdict


def main() -> None:
    # Five replicas; two pairs share an identifier (e.g. cloned VM images).
    membership = grouped_identities([2, 2, 1], prefix="replica-")
    print("replica group:", membership.describe())

    # Commands submitted by clients; different replicas see different fronts
    # of the client stream, hence the differing proposals per slot.
    client_stream = [
        ["SET x=1", "SET x=2", "DEL y"],
        ["SET y=7", "SET x=2"],
        ["CAS z 0->4", "DEL y", "SET x=1"],
    ]

    log: list[str] = []
    for slot, commands in enumerate(client_stream):
        # From slot 1 on, one replica is down (a minority — Figure 8's limit).
        crash_schedule = no_crashes() if slot == 0 else minority_crashes(
            membership, at=5.0, count=1
        )
        proposals, verdict = agree_on_slot(
            membership, slot, commands, crash_schedule, seed=100 + slot
        )
        chosen = next(iter(set(verdict.decided_values.values())))
        log.append(chosen)
        status = "ok" if verdict.ok else f"PROBLEM: {verdict.violations}"
        print(f"\nslot {slot}: proposals {sorted(set(proposals.values()))}")
        print(f"  decided {chosen!r} in {verdict.max_decision_round} round(s) "
              f"[validity+agreement+termination: {status}]")

    print("\nfinal replicated log (identical on every live replica):")
    for slot, command in enumerate(log):
        print(f"  [{slot}] {command}")


if __name__ == "__main__":
    main()
