"""Command-line entry point for seeded chaos campaigns.

Examples::

    python -m repro.chaos soak                       # one campaign, seed 0
    python -m repro.chaos soak --campaigns 3 --seed 7
    python -m repro.chaos soak --transport           # add the real-TCP leg
    python -m repro.chaos plan --seed 41             # print what 41 injects

``soak`` exits non-zero if any campaign invariant fails, which is what the
CI ``chaos-smoke`` job gates on.  Each campaign's scratch directory is
created outside the fenced ``TMPDIR`` and removed afterwards unless
``--keep`` names a directory to preserve the evidence in.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from .campaign import FaultPlan
from .soak import run_campaign

__all__ = ["main"]


def _cmd_plan(args: argparse.Namespace) -> int:
    json.dump(FaultPlan.from_seed(args.seed).to_dict(), sys.stdout, indent=2)
    print()
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    failures = 0
    for offset in range(args.campaigns):
        seed = args.seed + offset
        if args.keep:
            scratch = Path(args.keep) / f"campaign-{seed}"
            scratch.mkdir(parents=True, exist_ok=True)
        else:
            scratch = Path(tempfile.mkdtemp(prefix=f"repro-chaos-{seed}-"))
        try:
            report = run_campaign(
                seed,
                scratch=scratch,
                workers=args.workers,
                progress_timeout=args.progress_timeout,
                kv=not args.no_kv,
                transport=args.transport,
            )
        finally:
            if not args.keep:
                shutil.rmtree(scratch, ignore_errors=True)
        print(json.dumps(report.to_dict(), sort_keys=True))
        status = "ok" if report.ok else "FAILED"
        print(
            f"chaos: campaign seed={seed} {status} "
            f"({sum(i.ok for i in report.invariants)}/{len(report.invariants)} "
            "invariants)",
            file=sys.stderr,
        )
        print(report, file=sys.stderr)
        if not report.ok:
            failures += 1
    if failures:
        print(f"chaos: {failures}/{args.campaigns} campaign(s) FAILED", file=sys.stderr)
        return 1
    print(f"chaos: all {args.campaigns} campaign(s) passed", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Seeded, replayable chaos campaigns (see repro/chaos/__init__.py).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan_parser = commands.add_parser(
        "plan", help="print the injection plan a seed derives to"
    )
    plan_parser.add_argument("--seed", type=int, default=0)
    plan_parser.set_defaults(handler=_cmd_plan)

    soak_parser = commands.add_parser(
        "soak", help="run seeded campaigns and assert every invariant"
    )
    soak_parser.add_argument(
        "--campaigns", type=int, default=1, metavar="N", help="how many seeds to soak"
    )
    soak_parser.add_argument("--seed", type=int, default=0, help="first campaign seed")
    soak_parser.add_argument(
        "--workers", type=int, default=2, metavar="N", help="fabric workers per run"
    )
    soak_parser.add_argument(
        "--progress-timeout",
        type=float,
        default=3.0,
        metavar="SECONDS",
        help="per-worker stall deadline inside the campaign (default 3)",
    )
    soak_parser.add_argument(
        "--transport",
        action="store_true",
        help="also run the real-TCP leg (lossy links + kill/suspend fault)",
    )
    soak_parser.add_argument(
        "--no-kv", action="store_true", help="skip the KV linearizability run"
    )
    soak_parser.add_argument(
        "--keep", metavar="DIR", help="preserve each campaign's scratch dir under DIR"
    )
    soak_parser.set_defaults(handler=_cmd_soak)

    args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
