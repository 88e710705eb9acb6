"""One-off heartbeat detection runs on either backend.

Examples::

    # one 3-node real run: kill node 2 at t=6, report detection latency
    python -m repro.transport --nodes 3 --backend real --log-dir ./hb_logs

    # the same scenario on the simulator (bit-for-bit deterministic)
    python -m repro.transport --nodes 3 --backend sim

The scenario is the validation harness's unit cell: n nodes running the
``heartbeat`` program, one victim killed at ``--fail-at``, detection judged
identically on both backends — the registered ``hb_detection`` check over a
``RunTrace``, which a real run's node logs are loaded into — so both print the
same ``hb_detection_*`` keys.  The exit code is ``hb_detection_ok``.  For full
(hb_interval × hb_timeout) sweeps with heatmap/scatter CSVs, run experiment
E11: ``python -m repro.experiments E11``.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..runtime import Engine, scenario
from ..runtime.spec import asynchronous, crashes_at, lossy

__all__ = ["main", "build_heartbeat_spec"]


def build_heartbeat_spec(
    *,
    nodes: int = 3,
    hb_interval: float = 1.0,
    hb_timeout: float = 3.0,
    fail_at: float = 6.0,
    victims: int = 1,
    seed: int = 0,
    backend: str = "sim",
    time_scale: float = 0.05,
    log_dir: str | None = None,
    loss: float = 0.0,
    fault_action: str = "kill",
    resume_after: float | None = None,
    name: str = "hb-detection",
):
    """The harness's unit scenario, identical for both backends.

    The sim timing models localhost: sub-interval latencies, so the only
    latency the detector sees is its own timeout discipline — which is what
    the real backend measures for real.

    ``loss`` applies the same per-message drop probability on both backends:
    the simulator's ``lossy(loss)`` link model on sim, a
    :class:`~repro.transport.node.ShapedLink` on real — so lossy cells of a
    sim-vs-real sweep compare like with like.
    """
    horizon = fail_at + hb_timeout + 3.0 * hb_interval + 2.0
    build = (
        scenario(name)
        .processes(nodes)
        .unique_ids()
        .timing(asynchronous(min_latency=0.005, max_latency=0.05))
        .crashes(crashes_at({nodes - 1 - v: fail_at for v in range(victims)}))
        .program(
            "heartbeat",
            hb_interval=hb_interval,
            hb_timeout=hb_timeout,
            record_pings=True,
        )
        .check("hb_detection")
        .horizon(horizon)
        .seed(seed)
    )
    if loss:
        if backend == "real":
            build = build.adversarial()
        else:
            build = build.network(lossy(loss)).adversarial()
    if backend == "real":
        params = {"time_scale": time_scale}
        if log_dir:
            params["log_dir"] = log_dir
        if loss:
            params["link"] = {"loss": loss, "seed": seed}
        if fault_action != "kill":
            params["fault_action"] = fault_action
        if resume_after is not None:
            params["resume_after"] = resume_after
        build = build.backend("real", **params)
    return build.build()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.transport",
        description="Run one heartbeat detection scenario on the sim or real backend.",
    )
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--backend", choices=("sim", "real"), default="real")
    parser.add_argument("--hb-interval", type=float, default=1.0, help="scenario time units")
    parser.add_argument("--hb-timeout", type=float, default=3.0, help="scenario time units")
    parser.add_argument("--fail-at", type=float, default=6.0, help="victim crash time")
    parser.add_argument("--victims", type=int, default=1, help="how many nodes to kill")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--time-scale", type=float, default=0.05, help="wall seconds per time unit (real)"
    )
    parser.add_argument("--log-dir", help="keep the JSONL node logs here (real)")
    parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="per-message drop probability on every link (both backends)",
    )
    args = parser.parse_args(argv)

    spec = build_heartbeat_spec(
        nodes=args.nodes,
        hb_interval=args.hb_interval,
        hb_timeout=args.hb_timeout,
        fail_at=args.fail_at,
        victims=args.victims,
        seed=args.seed,
        backend=args.backend,
        time_scale=args.time_scale,
        log_dir=args.log_dir,
        loss=args.loss,
    )
    record = Engine().run(spec)
    print(json.dumps(record.to_dict(), indent=2, sort_keys=True, default=str))
    ok = record.metrics.get("hb_detection_ok")
    latency = record.metrics.get("hb_detection_time")
    print(
        f"\nbackend={args.backend} detection_ok={ok} "
        f"median_detection_latency={latency} (time units)",
        file=sys.stderr,
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
