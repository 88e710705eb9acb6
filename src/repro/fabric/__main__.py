"""Command-line entry point for the distributed sweep fabric.

Examples::

    python -m repro.fabric plan E1 E2 -o plan.json
    python -m repro.fabric run E1 --workers 3 --dir state/ --cache .run-cache
    python -m repro.fabric run --dir state/            # resume a crashed run
    python -m repro.fabric merge --dir state/          # journals -> merged.jsonl
    python -m repro.fabric digests --dir state/        # manifest of a finished run

``run`` is idempotent: re-running with the same ``--dir`` (and the same plan,
which is frozen into it) executes only the items whose results are not yet
journaled, then rewrites the merged output.  ``--cache`` may be a directory an
ordinary ``repro.experiments --cache`` run warmed (or will read): both write
one entry per item, digests included, so ``digests`` works either way.
Worker death, worker stalls and coordinator death are rehearsed — and their
output compared with a serial run's — by ``python -m repro.verify``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..analysis.runner import jsonl_line
from .coordinator import DEFAULT_PROGRESS_TIMEOUT, Coordinator, FabricError, FabricResult
from .plan import FabricPlan, plan_experiments

__all__ = ["main"]


def _add_selection(parser: argparse.ArgumentParser, *, required: bool) -> None:
    parser.add_argument(
        "experiments",
        nargs="+" if required else "*",
        metavar="EXPERIMENT",
        help="experiment ids to plan (e.g. E1 E2 E9)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="plan the full parameter sweeps instead of the quick ones",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = plan_experiments(args.experiments, quick=not args.full, seed=args.seed)
    if args.output:
        plan.write(args.output)
        print(f"plan: {len(plan)} items -> {args.output}", file=sys.stderr)
    else:
        json.dump(plan.to_dict(), sys.stdout, indent=1, sort_keys=True)
        print()
    return 0


def _resolve_plan(args: argparse.Namespace) -> FabricPlan | None:
    """The plan for a run: explicit file > named experiments > frozen state."""
    if args.plan:
        return FabricPlan.read(args.plan)
    if args.experiments:
        return plan_experiments(args.experiments, quick=not args.full, seed=args.seed)
    return None  # resume: Coordinator loads the frozen plan from the state dir


def _cmd_run(args: argparse.Namespace) -> int:
    coordinator = Coordinator(
        _resolve_plan(args),
        state_dir=args.dir,
        workers=args.workers,
        cache=args.cache,
        progress_timeout=args.progress_timeout,
        allow_partial=args.allow_partial,
    )
    result = coordinator.run(merged_path=args.merged)
    print(json.dumps(result.stats, sort_keys=True), file=sys.stderr)
    if result.partial:
        print(
            f"fabric: PARTIAL merge — {len(result.quarantined)} item(s) "
            f"quarantined (see {coordinator.partial_path})",
            file=sys.stderr,
        )
    print(result.merged_path)
    return 0


def _completed_result(state_dir: str) -> FabricResult:
    """Rebuild a :class:`FabricResult` from a state dir's journals alone."""
    coordinator = Coordinator(None, state_dir=state_dir)
    have = coordinator.journaled()
    missing = [item for item in coordinator.plan.items if item.index not in have]
    if missing:
        raise FabricError(
            f"{len(missing)} of {len(coordinator.plan)} items have no journaled "
            f"result (first: {missing[0].label}); run "
            f"`python -m repro.fabric run --dir {state_dir}` to finish the plan"
        )
    results = [have[item.index] for item in coordinator.plan.items]
    return FabricResult(plan=coordinator.plan, results=results)


def _cmd_merge(args: argparse.Namespace) -> int:
    result = _completed_result(args.dir)
    merged = Path(args.merged) if args.merged else Path(args.dir) / "merged.jsonl"
    with open(merged, "w", encoding="utf-8") as handle:
        handle.writelines(jsonl_line(item.row) for item in result.results)
    print(merged)
    return 0


def _cmd_digests(args: argparse.Namespace) -> int:
    json.dump(_completed_result(args.dir).manifest(), sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fabric",
        description="Shard experiment sweeps across worker processes, "
        "deterministically (see src/repro/fabric/__init__.py).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan_parser = commands.add_parser(
        "plan", help="enumerate an experiment's work as a shardable plan"
    )
    _add_selection(plan_parser, required=True)
    plan_parser.add_argument("-o", "--output", metavar="FILE", help="write plan.json here")
    plan_parser.set_defaults(handler=_cmd_plan)

    run_parser = commands.add_parser(
        "run", help="execute a plan across workers (resumes if --dir has state)"
    )
    _add_selection(run_parser, required=False)
    run_parser.add_argument(
        "--dir", required=True, metavar="DIR", help="coordinator state directory"
    )
    run_parser.add_argument("--plan", metavar="FILE", help="use this plan.json")
    run_parser.add_argument(
        "--workers", type=int, default=2, metavar="N", help="worker processes (default 2)"
    )
    run_parser.add_argument("--cache", metavar="DIR", help="shared run-cache directory")
    run_parser.add_argument(
        "--merged", metavar="FILE", help="merged JSONL path (default: DIR/merged.jsonl)"
    )
    run_parser.add_argument(
        "--progress-timeout",
        type=float,
        default=DEFAULT_PROGRESS_TIMEOUT,
        metavar="SECONDS",
        help="kill a worker that makes no progress for this long "
        f"(default {DEFAULT_PROGRESS_TIMEOUT:g}s; stalled workers delay a "
        "run, never hang it)",
    )
    run_parser.add_argument(
        "--allow-partial",
        action="store_true",
        help="merge without quarantined poison items instead of failing; "
        "the exact missing indices land in DIR/partial.json",
    )
    run_parser.set_defaults(handler=_cmd_run)

    merge_parser = commands.add_parser(
        "merge", help="merge a completed state dir's journals into ordered JSONL"
    )
    merge_parser.add_argument("--dir", required=True, metavar="DIR")
    merge_parser.add_argument("--merged", metavar="FILE")
    merge_parser.set_defaults(handler=_cmd_merge)

    digests_parser = commands.add_parser(
        "digests", help="print the digest manifest of a completed state dir"
    )
    digests_parser.add_argument("--dir", required=True, metavar="DIR")
    digests_parser.set_defaults(handler=_cmd_digests)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FabricError as error:
        print(f"fabric: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
