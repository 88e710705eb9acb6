"""The one verifier: every way of executing a plan yields the serial bytes.

    python -m repro.verify              # every deterministic experiment, quick, seed 0
    python -m repro.verify E1 E3 E10    # a smaller selection

Every way this library executes work is a function ``FabricPlan ->
list[ItemResult]``; :data:`LEGS` is the table of them and
:meth:`Report.compare` the one comparison each must pass against the serial
leg: row bytes, per-item digests, folded manifest.  The per-experiment
manifest goes to stdout (compare two trees with ``diff``); over the default
selection its ``ALL`` / ``FULL`` must equal the constants below.  Verdicts go
to stderr, and the exit status is non-zero if any failed.  CI, the verify
skill and a developer run this same command.
"""

from __future__ import annotations

import sys
import tempfile
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Collection, Sequence

from .analysis.runner import jsonl_line
from .experiments import ALL_EXPERIMENTS
from .fabric.coordinator import Coordinator, FabricResult, SimulatedCrash
from .fabric.plan import FabricPlan, PlanningError, plan_experiments
from .fabric.work import ItemResult, execute_item, execute_shard
from .runtime import Engine, executor_for
from .runtime.cache import RunCache
from .runtime.registry import EXPERIMENTS

__all__ = ["ALL", "FULL", "LEGS", "Invariant", "Report", "Run", "verify"]

#: The quick, seed-0 manifest digests (``ALL`` folds E1–E9, ``FULL`` every
#: deterministic experiment), unchanged since PR 3.  A change that moves them
#: changed which events some simulation dispatches, or their order.
ALL = "d5146530f4b16e76"
FULL = "6e076b721448552f"


@dataclass
class Invariant:
    """One checked guarantee: its verdict and the evidence line."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    """The invariants one verification (or chaos campaign) checked."""

    invariants: list[Invariant] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(invariant.ok for invariant in self.invariants)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.invariants.append(Invariant(name=name, ok=bool(ok), detail=detail))

    def __str__(self) -> str:
        marks = {True: "✓", False: "✗"}
        return "\n".join(f"  {marks[i.ok]} {i.name}: {i.detail}" for i in self.invariants)

    def compare(
        self,
        leg: str,
        plan: FabricPlan,
        reference: Sequence[ItemResult],
        results: Sequence[ItemResult],
        missing: Collection[int] = (),
    ) -> None:
        """Check ``results`` against the serial ``reference``, as invariant ``leg``.

        Row bytes, per-item digests and the folded manifest must be equal, item
        for item.  ``missing`` holds the indices an explicitly partial run
        declared lost: exactly those rows may — and must — be absent.
        """
        expected = [result for result in reference if result.index not in missing]
        for want, got in zip_longest(expected, results):
            if want is None or got is None or want.index != got.index:
                index = min(result.index for result in (want, got) if result is not None)
                problem = "its row is missing, duplicated or out of place"
            elif jsonl_line(want.row) != jsonl_line(got.row):
                index, problem = want.index, "its row bytes differ from serial"
            elif want.digests != got.digests:
                index, problem = want.index, "its digests differ from serial"
            else:
                continue
            return self.check(leg, False, f"item {index} ({plan.items[index].label}): {problem}")
        manifests = [FabricResult(plan, list(rows)).manifest() for rows in (expected, results)]
        same = manifests[0] == manifests[1]
        declared = f"; declared missing: {sorted(missing)}" if missing else ""
        verdict = "and manifest equal to serial" if same else "equal to serial, manifest DIFFERS"
        self.check(leg, same, f"{len(expected)} rows, digests {verdict}{declared}")


@dataclass
class Run:
    """One plan being verified: its scratch directory, reference and verdicts."""

    plan: FabricPlan
    scratch: Path
    report: Report = field(default_factory=Report)

    @cached_property
    def reference(self) -> list[ItemResult]:
        """Every item executed in process, in order — the ground truth."""
        return [execute_item(item) for item in self.plan.items]

    def coordinate(
        self, tag: str, plan: FabricPlan | None, fired: str | None = None, **options
    ) -> list[ItemResult]:
        """A 2-worker fabric run in state directory ``tag``; ``fired`` names the
        run statistic that proves the leg's chaos happened."""
        result = Coordinator(plan, state_dir=self.scratch / tag, workers=2, **options).run()
        if fired:
            count = result.stats[fired]
            self.report.check(f"{tag}.fired", count >= 1, f"{fired}: {count}")
        return result.results

    def experiments(self, tag: str, **engine_options) -> tuple[str, str]:
        """Run the real experiment functions: ``(tables and summaries, JSONL)``."""
        jsonl = self.scratch / f"{tag}.jsonl"
        jsonl.touch()
        with Engine(jsonl_path=str(jsonl), **engine_options) as engine:
            results = [
                EXPERIMENTS.resolve(name)(quick=self.plan.quick, seed=self.plan.seed, engine=engine)
                for name in self.plan.experiments
            ]
        tables = "\n".join(f"{result.table()}\nsummary: {result.summary}" for result in results)
        return tables, jsonl.read_text(encoding="utf-8")

    @cached_property
    def warmed(self) -> tuple[str, str]:
        """The serial engine's output; running it warmed the cache ``scratch/warm``."""
        return self.experiments("serial-engine", cache=self.scratch / "warm")


def _serial(run: Run) -> None:
    manifest = FabricResult(run.plan, run.reference).manifest()
    for name, digest in manifest.items():
        print(f"{name:>4}  {digest}")
    pinned = run.plan.experiments == tuple(ALL_EXPERIMENTS)
    run.report.check(
        "serial",
        not pinned or (manifest["ALL"], manifest["FULL"]) == (ALL, FULL),
        f"{len(run.reference)} items, ALL {manifest['ALL']} / FULL {manifest['FULL']} "
        + (f"(pinned: {ALL} / {FULL})" if pinned else "(pinned for the default selection only)"),
    )


def _pool(run: Run) -> list[ItemResult]:
    with closing(executor_for(2)) as executor:
        return list(executor.imap(execute_item, run.plan.items))


def _resume(run: Run) -> "list[ItemResult] | None":
    try:
        run.coordinate("resume", run.plan, crash_after_chunks=3)
    except SimulatedCrash:  # the frozen plan and the journals drive the second run
        return run.coordinate("resume", None, fired="from_journal")
    run.report.check("resume.fired", False, "the coordinator crash never fired")


def _warm_cache(run: Run) -> list[ItemResult]:
    run.warmed  # noqa: B018 — the serial engine run is what fills scratch/warm
    results = run.coordinate("warm-cache", run.plan, cache=run.scratch / "warm")
    fresh, entries = sum(r.source == "fresh" for r in results), len(RunCache(run.scratch / "warm"))
    run.report.check(
        "warm-cache.served",
        (fresh, entries) == (0, len(run.plan)),
        f"{fresh} items executed fresh; {entries} cache entries for {len(run.plan)} items",
    )
    return results


def _engine(run: Run) -> None:
    rows = "".join(
        jsonl_line(result.row)
        for item, result in zip(run.plan.items, run.reference)
        if item.kind != "map"  # Engine.map emits nothing to JSONL
    )
    (tables, serial), (pooled_tables, pooled) = run.warmed, run.experiments("pool-engine", jobs=2)
    facts = {
        "serial JSONL == reference rows": serial == rows,
        "--jobs 2 JSONL == reference rows": pooled == rows,
        "tables equal across executors": tables == pooled_tables,
    }
    run.report.check(
        "engine", all(facts.values()), "; ".join(f"{fact}: {ok}" for fact, ok in facts.items())
    )


#: name -> how that leg executes ``run.plan``.  A leg returns its item results
#: for :meth:`Report.compare`, or ``None`` when it reports on its own.
LEGS: dict[str, Callable[[Run], "list[ItemResult] | None"]] = {
    "serial": _serial,
    "pool": _pool,
    "fabric": lambda run: run.coordinate("fabric", run.plan),
    "shards": lambda run: [r for i in range(3) for r in execute_shard(run.plan.items, i, 3)],
    "kill": lambda run: run.coordinate(
        "kill", run.plan, "worker_deaths", chaos_kill_worker_after=4
    ),
    # The deadline is long enough that the slowest quick item (E12 at n=1000,
    # seconds) is never taken for the SIGSTOPped worker.
    "stall": lambda run: run.coordinate(
        "stall", run.plan, "stalled_workers", chaos_stall_worker_after=4, progress_timeout=10.0
    ),
    "resume": _resume,
    "warm-cache": _warm_cache,
    "engine": _engine,
}


def verify(names: Sequence[str] = (), legs: Sequence[str] = tuple(LEGS)) -> Report:
    """Run ``legs`` over the quick, seed-0 plan of ``names`` (default: every
    deterministic experiment — the selection ``ALL`` / ``FULL`` are pinned for)."""
    plan = plan_experiments(names or ALL_EXPERIMENTS)
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as scratch:
        run = Run(plan, Path(scratch))
        for leg in legs:
            results = LEGS[leg](run)
            if results is not None:
                run.report.compare(leg, plan, run.reference, results)
    return run.report


def main(argv: Sequence[str] | None = None) -> int:
    try:
        report = verify(sys.argv[1:] if argv is None else argv)
    except PlanningError as error:
        print(f"verify: {error}", file=sys.stderr)
        return 2
    print(f"{report}\nverify: {'all passed' if report.ok else 'FAILED'}", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
