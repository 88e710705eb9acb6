"""Run one certified KV scenario from the command line.

``python -m repro.workloads.kv`` builds a quick scenario, runs and measures it
with the engine's :func:`~repro.runtime.simulate_spec` and
:func:`~repro.runtime.measure_run`, prints the service metrics, the
determinism digest and how the history was certified (keys settled by their
version order, keys searched, states explored), and exits non-zero unless the
client history is linearizable and, outside ``--fault lossy``, every issued
operation completed — which is how CI keeps a hard correctness and liveness
gate on the service.
"""

from __future__ import annotations

import argparse
import sys

from ...runtime import lossy, measure_run, minority, scenario, simulate_spec
from .linearizability import check_history, history_from_trace


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.kv",
        description="Run one replicated-KV scenario and certify linearizability.",
    )
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--ops", type=int, default=6, help="operations per client")
    parser.add_argument("--skew", choices=("uniform", "zipf"), default="uniform")
    parser.add_argument("--read-mode", choices=("log", "local"), default="log")
    parser.add_argument(
        "--fault",
        choices=("none", "crash", "lossy"),
        default="none",
        help="fault envelope: crash one replica, or 5%% message loss",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    builder = (
        scenario(f"kv-cli-{args.fault}")
        .homonyms([2, 2, 1])
        .detectors("HOmega", stabilization=10.0)
        .kv(
            clients=args.clients,
            ops_per_client=args.ops,
            skew=args.skew,
            read_mode=args.read_mode,
            think_time=1.0,
            key_space=6,
        )
        .horizon(600.0)
        .seed(args.seed)
    )
    if args.fault == "crash":
        builder = builder.crashes(minority(at=12.0, count=1))
    elif args.fault == "lossy":
        builder = builder.network(lossy(0.05)).adversarial()
    spec = builder.build()

    simulation = simulate_spec(spec)
    record = measure_run(spec, simulation)

    print(f"scenario: {spec.name} (seed={spec.seed})  digest: {record.digest}")
    for key in sorted(record.metrics):
        print(f"  {key}: {record.metrics[key]}")
    metrics = record.metrics
    if not metrics["linearizable"]:
        print("LINEARIZABILITY VIOLATED", file=sys.stderr)
        return 1
    # Pending operations constrain nothing, so a starved client still
    # certifies: only lossy links may leave operations unanswered.
    if args.fault != "lossy" and metrics["ops_completed"] < metrics["ops_issued"]:
        print(
            f"STARVED: {metrics['ops_completed']} of {metrics['ops_issued']} operations completed",
            file=sys.stderr,
        )
        return 1
    history = history_from_trace(simulation.trace)
    verdict = check_history(history)
    keys = len({operation.key for operation in history})
    print(
        f"linearizability: certified ({verdict.witnessed}/{keys} keys by version order, "
        f"{keys - verdict.witnessed} searched, {verdict.states_explored} states)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
