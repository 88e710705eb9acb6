#!/usr/bin/env python3
"""A tiny replicated log built on repeated homonymous consensus.

The classic application of consensus is state-machine replication: replicas
agree on the command to place in each log slot, in order.  This example builds
a three-slot replicated log on top of the paper's Figure 8 algorithm in a
homonymous system — each slot is one consensus instance whose proposals are
the commands the replicas happen to have received from clients.

It demonstrates how a downstream user composes the library: one scenario spec
per slot (replica group, crash schedule, detectors, algorithm), the finished
simulation to read which replica's proposal won, and the run record to certify
the slot.

Run with:  python examples/replicated_log.py
"""

from __future__ import annotations

from repro.runtime import (
    MembershipSpec,
    distinct_proposals,
    measure_run,
    minority,
    no_crashes,
    scenario,
    simulate_spec,
)

#: Five replicas; two pairs share an identifier (e.g. cloned VM images).
REPLICAS = MembershipSpec("groups", groups=(2, 2, 1), prefix="replica-")


def agree_on_slot(slot, client_commands, crashes, seed):
    """Run one consensus instance for log slot ``slot``: what each replica
    proposed, the command decided, and the slot's run record."""
    spec = (
        scenario(f"log-slot-{slot}")
        .membership(REPLICAS)
        .crashes(crashes)
        .detectors("HOmega", "HSigma", stabilization=10.0)
        .consensus("homega_majority")
        .horizon(400.0)
        .seed(seed)
        .build()
    )
    simulation = simulate_spec(spec)
    # A spec gives every replica its own proposal, which stands for the command
    # the replica holds.
    proposals = distinct_proposals(simulation.system.membership)
    commands = {
        proposal: client_commands[replica.index % len(client_commands)]
        for replica, proposal in proposals.items()
    }
    decided = {commands[decision.value] for decision in simulation.trace.decisions.values()}
    return sorted(set(commands.values())), decided, measure_run(spec, simulation)


def main() -> None:
    print("replica group:", REPLICAS.build().describe())

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
        crashes = no_crashes() if slot == 0 else minority(at=5.0, count=1)
        proposals, decided, record = agree_on_slot(slot, commands, crashes, seed=100 + slot)
        (chosen,) = decided  # agreement: one command per slot
        log.append(chosen)
        ok = record.metrics["decided"] and record.metrics["safe"]
        status = "ok" if ok else "PROBLEM: VIOLATED"
        print(f"\nslot {slot}: proposals {proposals}")
        print(f"  decided {chosen!r} in {record.metrics['rounds']} round(s) "
              f"[validity+agreement+termination: {status}]")

    print("\nfinal replicated log (identical on every live replica):")
    for slot, command in enumerate(log):
        print(f"  [{slot}] {command}")


if __name__ == "__main__":
    main()
