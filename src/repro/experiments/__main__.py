"""Command-line entry point for the experiment harness.

Examples::

    python -m repro.experiments                     # every deterministic
                                                    # experiment, quick mode
    python -m repro.experiments --full E4 E5        # full sweeps of E4 and E5
    python -m repro.experiments --jobs 4            # one warm worker pool,
                                                    # reused across experiments
    python -m repro.experiments --cache .run-cache  # memoize completed runs
    python -m repro.experiments --stream --jsonl runs.jsonl   # rows as they land
    python -m repro.experiments --format json E1    # machine-readable output
    python -m repro.experiments --seed 3 -o report.txt --jsonl runs.jsonl
    python -m repro.experiments E1 --shard 2/3 --jsonl shard2.jsonl
                                                    # one shard of the sweep;
                                                    # concatenating the N
                                                    # shards reproduces the
                                                    # serial JSONL exactly
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..analysis.runner import jsonl_line
from ..runtime import Engine
from ..runtime.registry import EXPERIMENTS
from . import ALL_EXPERIMENTS, WALLCLOCK_EXPERIMENTS  # noqa: F401  (importing registers them)

__all__ = ["main"]


def _run_shard(parser, args, selected: list[str]) -> int:
    """Execute one contiguous shard of the selected experiments' work plan.

    The plan (and therefore the shard boundaries and row order) is exactly
    what a serial run executes, so ``cat shard1 … shardN`` reproduces the
    serial ``--jsonl`` byte-for-byte.
    """
    from ..fabric.plan import PlanningError, plan_experiments
    from ..fabric.work import execute_shard
    from ..runtime.cache import RunCache

    for flag in ("jobs", "stream", "format", "output"):
        if getattr(args, flag) != parser.get_default(flag):
            parser.error(f"--{flag} does not apply to --shard (it emits JSONL rows, in process)")
    try:
        index_text, _, count_text = args.shard.partition("/")
        index, count = int(index_text), int(count_text)
    except ValueError:
        parser.error(f"--shard expects i/N (e.g. 2/3), got {args.shard!r}")
    if not 1 <= index <= count:
        parser.error(f"--shard index must be in 1..{count}, got {index}")
    try:
        plan = plan_experiments(selected, quick=not args.full, seed=args.seed)
    except PlanningError as error:
        parser.error(str(error))
    sink = open(args.jsonl, "w", encoding="utf-8") if args.jsonl else sys.stdout
    done = 0
    try:
        for result in execute_shard(plan.items, index - 1, count, RunCache.coerce(args.cache)):
            sink.write(jsonl_line(result.row))
            sink.flush()
            done += 1
    finally:
        if args.jsonl:
            sink.close()
    print(
        f"shard {index}/{count}: {done} of {len(plan)} items "
        f"({', '.join(plan.experiments)})",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the selected experiments and print (or write) their tables."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's results, one experiment each (README, Experiments).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids to run (default: every deterministic experiment, "
        "E1 through E12; wall-clock experiments like E11 run only when named)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the full parameter sweeps instead of the quick ones",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweeps (default 1 = serial); one warm "
        "pool is kept across all selected experiments",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="memoize completed runs in this directory, keyed on "
        "(canonical-spec-hash, seed); repeated or resumed sweeps skip "
        "recompute (the directory is created if missing)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="print every run's record/row to stderr as one JSON line the "
        "moment it completes (tables still print at the end; with --jsonl "
        "the log flushes incrementally either way)",
    )
    parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default: table)",
    )
    parser.add_argument(
        "--jsonl",
        metavar="FILE",
        help="append every run record/row to this JSONL file (written after "
        "each experiment's sweep finishes)",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="also write the report to this file",
    )
    parser.add_argument(
        "--shard",
        metavar="i/N",
        help="execute only shard i of N (1-based) of the selected experiments' "
        "work plan and emit its rows as JSONL (to --jsonl or stdout); shards "
        "partition the plan contiguously, so concatenating all N shard files "
        "in order is byte-identical to the serial JSONL. Tables are skipped; "
        "--jobs, --stream, --format json and -o are rejected",
    )
    args = parser.parse_args(argv)

    # Wall-clock experiments (E11's real-backend half) only run when named
    # explicitly: the default selection stays deterministic and CI-cheap.
    selected = [name.upper() for name in args.experiments] or [
        name for name in EXPERIMENTS.names() if name not in WALLCLOCK_EXPERIMENTS
    ]
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"available: {', '.join(EXPERIMENTS.names())}"
        )

    if args.shard:
        return _run_shard(parser, args, selected)

    def stream_line(payload) -> None:
        print(jsonl_line(payload), end="", file=sys.stderr, flush=True)

    engine = Engine(
        jobs=args.jobs,
        jsonl_path=args.jsonl,
        cache=args.cache,
        progress=stream_line if args.stream else None,
    )

    results = []
    try:
        for name in selected:
            runner = EXPERIMENTS.resolve(name)
            started = time.perf_counter()
            result = runner(quick=not args.full, seed=args.seed, engine=engine)
            elapsed = time.perf_counter() - started
            results.append((name, result, elapsed))
    finally:
        engine.close()

    if args.format == "json":
        payload = [
            {
                "experiment": result.experiment,
                "description": result.description,
                "mode": "full" if args.full else "quick",
                "seed": args.seed,
                "jobs": args.jobs,
                "elapsed_seconds": round(elapsed, 3),
                "rows": [dict(row) for row in result.rows],
                "summary": dict(result.summary),
            }
            for _, result, elapsed in results
        ]
        report = json.dumps(payload, indent=2, default=str)
        print(report)
    else:
        sections = []
        for _, result, elapsed in results:
            section = "\n".join(
                [
                    result.table(),
                    f"summary: {result.summary}",
                    f"(completed in {elapsed:.1f}s, {'full' if args.full else 'quick'} mode, seed {args.seed})",
                ]
            )
            sections.append(section)
            print(section)
            print()
        report = "\n\n".join(sections)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        # Keep stdout machine-consumable in json mode; the notice is chatter.
        notice_stream = sys.stderr if args.format == "json" else sys.stdout
        print(f"report written to {args.output}", file=notice_stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
