"""The one verifier: every way of executing a plan yields the serial bytes.

    python -m repro.verify                      # every deterministic experiment, quick, seed 0
    python -m repro.verify E1 E3 E10            # a smaller selection
    python -m repro.verify --seed 7 E1 E3 E10   # other experiment seeds, other faults

Every way this library executes work is a function ``Run -> list[ItemResult]``;
:data:`LEGS` is the table of them and :meth:`Report.compare` the one
comparison each must pass against the serial leg: row bytes, per-item
digests, folded manifest.  The seed plans the experiments and aims the legs
that break something (:mod:`repro.verify.faults`): after how many results
``kill`` SIGKILLs a busy worker and ``stall`` SIGSTOPs one, after how many chunks
``resume`` crashes the coordinator, and how it then tears the journals and
corrupts the run cache before resuming — so a failing seed replays exactly.
Every run also checks its own hygiene: ``TMPDIR`` is fenced inside the
scratch directory, and ``no_orphans`` / ``no_temp_leaks`` fail if a child
process or a temporary file outlives the legs.

The per-experiment manifest goes to stdout (compare two trees with ``diff``);
over the default selection at seed 0 its ``ALL`` / ``FULL`` must equal the
constants below.  Verdicts go to stderr, and the exit status is non-zero if
any failed.  CI, the verify skill and a developer run this same command.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import zip_longest
from multiprocessing import resource_tracker, util
from pathlib import Path
from typing import Callable, Collection, Iterator, Sequence

from ..analysis.runner import jsonl_line
from ..experiments import ALL_EXPERIMENTS
from ..fabric.coordinator import Coordinator, FabricResult
from ..fabric.plan import FabricPlan, plan_experiments
from ..fabric.work import ItemResult, execute_item, execute_shard
from ..runtime import Engine, executor_for
from ..runtime.cache import RunCache
from ..runtime.registry import EXPERIMENTS
from .faults import ChaosFleet, ChaosPlan, SimulatedCrash, corrupt_cache_entries, mutilate_journal

__all__ = ["ALL", "FULL", "LEGS", "ChaosPlan", "Invariant", "Report", "Run", "verify"]

#: The quick, seed-0 manifest digests (``ALL`` folds E1–E9, ``FULL`` every
#: deterministic experiment).  A change that moves them changed which events
#: some simulation dispatches, or their order.
ALL = "d5146530f4b16e76"
FULL = "36431b0c9cf84175"

#: The ``stall`` leg's progress deadline is this many times the slowest item
#: of the serial reference, and never less than ``STALL_FLOOR`` seconds: long
#: enough that no busy worker is taken for the SIGSTOPped one.
STALL_MARGIN = 4
STALL_FLOOR = 1.0


def _descendant_pids() -> set[int]:
    """PIDs of every live descendant of this process: its children, their
    children (a fork server's workers), and so on (via /proc; empty set elsewhere)."""
    children: dict[int, list[int]] = {}
    proc = Path("/proc")
    for entry in proc.iterdir() if proc.is_dir() else ():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rpartition(")")[2].split()
        except OSError:
            continue  # raced with an exit
        if len(fields) > 1:
            children.setdefault(int(fields[1]), []).append(int(entry.name))
    found, frontier = set(), [os.getpid()]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            found.add(child)
            frontier.append(child)
    return found


@dataclass
class Invariant:
    """One checked guarantee: its verdict and the evidence line."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    """The invariants one verification checked."""

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
    #: Wall-clock seconds of the slowest item, measured by :attr:`reference`.
    slowest: float = field(default=0.0, init=False)

    @cached_property
    def chaos(self) -> ChaosPlan:
        """The faults the plan's seed aims."""
        return ChaosPlan.from_seed(self.plan.seed)

    @cached_property
    def reference(self) -> list[ItemResult]:
        """Every item executed in process, in order — the ground truth."""
        results = []
        for item in self.plan.items:
            start = time.perf_counter()
            results.append(execute_item(item))
            self.slowest = max(self.slowest, time.perf_counter() - start)
        return results

    @cached_property
    def stall_deadline(self) -> float:
        """The ``stall`` leg's progress deadline (see :data:`STALL_MARGIN`)."""
        self.reference  # noqa: B018 — executing it is what measures the slowest item
        return max(STALL_FLOOR, STALL_MARGIN * self.slowest)

    def coordinate(
        self,
        tag: str,
        plan: FabricPlan | None,
        fired: str | None = None,
        story: Sequence[str] = (),
        **options,
    ) -> list[ItemResult]:
        """A 2-worker fabric run in state directory ``tag``; ``fired`` names the
        run statistic that proves the leg's chaos happened, ``story`` what it did."""
        result = Coordinator(plan, state_dir=self.scratch / tag, workers=2, **options).run()
        if fired:
            count = result.stats[fired]
            self.report.check(f"{tag}.fired", count >= 1, "; ".join([f"{fired}: {count}", *story]))
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
    pinned = (run.plan.experiments, run.plan.seed) == (tuple(ALL_EXPERIMENTS), 0)
    run.report.check(
        "serial",
        not pinned or (manifest["ALL"], manifest["FULL"]) == (ALL, FULL),
        f"{len(run.reference)} items, ALL {manifest['ALL']} / FULL {manifest['FULL']} "
        + (f"(pinned: {ALL} / {FULL})" if pinned else "(pinned for the default selection, seed 0)"),
    )


def _pool(run: Run) -> list[ItemResult]:
    with closing(executor_for(2)) as executor:
        return list(executor.imap(execute_item, run.plan.items))


def _kill(run: Run) -> list[ItemResult]:
    after = run.chaos.kill_worker_after
    story = [f"SIGKILL after {after} results"]
    fleet = partial(ChaosFleet, kill_after=after)
    return run.coordinate("kill", run.plan, "requeued_chunks", story, fleet=fleet)


def _stall(run: Run) -> list[ItemResult]:
    after, deadline = run.chaos.stall_worker_after, run.stall_deadline
    return run.coordinate(
        "stall",
        run.plan,
        "stalled_workers",
        [f"SIGSTOP after {after} results", f"deadline {deadline:.1f} s"],
        fleet=partial(ChaosFleet, stall_after=after),
        progress_timeout=deadline,
    )


def _resume(run: Run) -> "list[ItemResult] | None":
    chaos, cache = run.chaos, RunCache(run.scratch / "resume-cache")
    fleet = partial(ChaosFleet, crash_after_chunks=chaos.crash_after_chunks)
    try:
        run.coordinate("resume", run.plan, cache=cache, fleet=fleet)
    except SimulatedCrash as crash:
        # Damage what the crash left behind; the frozen plan, the journals and
        # the cache drive the second run, which must still give the serial bytes.
        rng = random.Random(f"chaos-mutilate:{chaos.seed}")
        story = [str(crash)]
        story += mutilate_journal(
            run.scratch / "resume" / "shards",
            torn=chaos.torn_journal,
            foreign=chaos.foreign_line,
            rng=rng,
        )
        corrupted = corrupt_cache_entries(cache.root, chaos.corrupt_cache_entries, rng)
        story.append(f"corrupted {len(corrupted)} cache entries")
        return run.coordinate("resume", None, "from_journal", story, cache=cache)
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
    rows = "".join(jsonl_line(result.row) for result in run.reference)
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
    "kill": _kill,
    "stall": _stall,
    "resume": _resume,
    "warm-cache": _warm_cache,
    "engine": _engine,
}


@contextmanager
def _hygiene(report: Report, fence: Path) -> Iterator[None]:
    """Fence ``TMPDIR`` into ``fence``; afterwards nothing may be left in it and
    no process started inside the block, nor any of its descendants, may be alive."""
    fence.mkdir()
    # multiprocessing's resource tracker and its temp dir (which holds the fork
    # server's socket) live until this interpreter exits, by design: create
    # both now so they are part of the baseline, not an orphan and a leak.
    # The fork server itself is started inside the fence, by the first fleet:
    # workers inherit the server's environment, so theirs is fenced too.
    resource_tracker.ensure_running()
    util.get_temp_dir()
    before = _descendant_pids()
    saved = tempfile.tempdir, os.environ.get("TMPDIR")
    tempfile.tempdir = os.environ["TMPDIR"] = str(fence)
    try:
        yield
    finally:
        tempfile.tempdir = saved[0]
        if saved[1] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved[1]
    orphans = sorted(_descendant_pids() - before)
    report.check(
        "no_orphans",
        not orphans,
        f"ORPHANED child PIDs: {orphans}" if orphans else "no worker process outlived its leg",
    )
    leaks = sorted(path.name for path in fence.iterdir())
    report.check(
        "no_temp_leaks",
        not leaks,
        f"LEAKED temp entries: {leaks}" if leaks else "the fenced TMPDIR is empty",
    )


def verify(names: Sequence[str] = (), legs: Sequence[str] = tuple(LEGS), seed: int = 0) -> Report:
    """Run ``legs`` over the quick plan of ``names`` at ``seed`` (default: every
    deterministic experiment — the selection ``ALL`` / ``FULL`` are pinned for
    at seed 0), then check that nothing outlived them."""
    plan = plan_experiments(names or ALL_EXPERIMENTS, seed=seed)
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as scratch:
        run = Run(plan, Path(scratch))
        with _hygiene(run.report, run.scratch / "tmp"):
            for leg in legs:
                results = LEGS[leg](run)
                if results is not None:
                    run.report.compare(leg, plan, run.reference, results)
    return run.report
