"""Run one seeded chaos campaign end-to-end and assert the repo's guarantees.

A campaign (see :mod:`repro.chaos.campaign` for how its parameters derive
from the seed) drives a real fabric sweep through every fault class at once:

1. **Serial reference** — every plan item executed in-process, giving the
   byte-exact merged JSONL and per-item digests any chaotic run must match.
2. **Kill + coordinator crash** — a fabric run that SIGKILLs a worker after
   *K* results and then dies itself (:class:`SimulatedCrash`) after
   ``K + C`` finished chunks, leaving a half-written state directory.  The
   thresholds are ordered so the worker kill provably fires first: a chunk
   completes only after its results, so ``completed_chunks >= K + C``
   implies ``results_seen > K``.
3. **Mutilation** — the journals are torn and salted with foreign lines,
   and cache entries are overwritten with garbage, exactly as a crash (or a
   stray writer) would leave them.
4. **Resume** — a fresh coordinator over the damaged state dir must finish
   the plan and merge byte-identically to the serial reference (or
   explicitly partial, naming exact indices — never silently short).
5. **Stall rehearsal** — a third run over a fresh state dir SIGSTOPs a busy
   worker mid-run; the fleet's progress deadline must detect it, kill it,
   requeue its chunk, and still converge to the identical bytes: a stalled
   worker slows a run down, never hangs it.
6. **Service invariants** — the replicated KV workload stays linearizable
   under a seed-chosen crash/lossy envelope, and (``transport=True``) a
   real TCP heartbeat run under a lossy :class:`ShapedLink` plus a
   seed-chosen SIGKILL-or-SIGSTOP fault still detects its victim.
7. **Hygiene** — no child process and no temporary directory outlives the
   campaign (``TMPDIR`` is fenced into the scratch directory for the whole
   campaign, then asserted empty).

Every invariant lands in the :class:`CampaignReport` with a pass/fail and a
human detail line; ``python -m repro.chaos soak`` exits non-zero if any
failed, which is what the CI ``chaos-smoke`` job gates on.  The reference and
the comparison against it are :mod:`repro.verify`'s: a chaotic run is held to
exactly what a clean pool or fabric run is held to.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from multiprocessing import resource_tracker
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..analysis.runner import ParameterSweep
from ..fabric.coordinator import Coordinator, SimulatedCrash
from ..fabric.plan import FabricPlan, plan_sweep
from ..runtime import Engine, lossy, minority, scenario
from ..runtime.cache import RunCache
from ..verify import Invariant, Report, Run
from .campaign import FaultPlan, corrupt_cache_entries, mutilate_journal

__all__ = ["CampaignReport", "Invariant", "run_campaign", "soak_plan"]

#: The sweep function the soak shards: E1's per-config runner, the smallest
#: real workload that still produces determinism digests.
SOAK_FN = "repro.experiments.e1_ohp_convergence._run_one"


def soak_plan(seed: int) -> FabricPlan:
    """A 12-item E1 sweep: small enough to soak in seconds, big enough that
    every chaos threshold (kill after ≤4 results, crash after ≤7 chunks,
    stall after ≤6 results) fires with work still outstanding."""
    sweep = ParameterSweep(
        {
            "n": [3],
            "distinct_ids": [1, 3],
            "gst": [2.0],
            "delta": [0.5, 1.0],
            "fixed_timeout": [False],
        },
        repetitions=3,
        base_seed=seed,
    )
    return plan_sweep(SOAK_FN, sweep, name="soak")


@dataclass(kw_only=True)
class CampaignReport(Report):
    """Everything one campaign did and proved, JSON-serializable."""

    seed: int
    plan: dict
    applied: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "fault_plan": self.plan,
            "applied": list(self.applied),
            "invariants": [asdict(invariant) for invariant in self.invariants],
            "stats": dict(self.stats),
        }


def _declared_missing(state: Path) -> list[int]:
    """The indices ``partial.json`` says a degraded run lost (none: a full run)."""
    partial = state / "partial.json"
    return json.loads(partial.read_text())["missing_indices"] if partial.exists() else []


def _child_pids() -> set[int]:
    """PIDs whose parent is this process (via /proc; empty set elsewhere)."""
    me = os.getpid()
    children: set[int] = set()
    proc = Path("/proc")
    if not proc.is_dir():
        return children
    for entry in proc.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # raced with an exit
        fields = stat.rpartition(")")[2].split()
        if len(fields) > 1 and int(fields[1]) == me:
            children.add(int(entry.name))
    return children


def _kv_invariant(report: CampaignReport, seed: int) -> None:
    """The replicated KV service stays linearizable under a seeded fault."""
    fault = random.Random(f"chaos-kv:{seed}").choice(["crash", "lossy"])
    builder = (
        scenario(f"chaos-kv-{fault}")
        .homonyms([2, 2, 1])
        .detectors("HOmega", stabilization=10.0)
        .kv(
            clients=3,
            ops_per_client=4,
            skew="uniform",
            read_mode="log",
            think_time=1.0,
            key_space=4,
        )
        .horizon(400.0)
        .seed(seed)
    )
    if fault == "crash":
        builder = builder.crashes(minority(at=12.0, count=1))
    else:
        builder = builder.network(lossy(0.05)).adversarial()
    record = Engine().run(builder.build())
    report.check(
        "kv_linearizable",
        record.metrics.get("linearizable") is True,
        f"replicated KV under {fault}: "
        f"{record.metrics.get('ops_completed', '?')} ops completed, "
        f"linearizable={record.metrics.get('linearizable')}",
    )


def _transport_invariant(report: CampaignReport, fault_plan: FaultPlan) -> None:
    """A lossy real-TCP run under the seeded fault still detects its victim."""
    from ..transport.__main__ import build_heartbeat_spec

    suspend = fault_plan.transport_fault == "suspend"
    hb_timeout = 3.0
    spec = build_heartbeat_spec(
        nodes=3,
        hb_timeout=hb_timeout,
        seed=fault_plan.seed,
        backend="real",
        loss=fault_plan.link["loss"],
        fault_action="suspend" if suspend else "kill",
        resume_after=hb_timeout + 2.0 if suspend else None,
    )
    metrics = Engine().run(spec).metrics
    # Not hb_detection_ok: under the seeded link loss a false suspicion of a
    # live peer is legitimate heartbeat behaviour, which the check reports as
    # a violation on either backend.  The invariant is that the victim is caught.
    latency = metrics.get("hb_detection_median_latency")
    report.check(
        "transport_detection",
        metrics.get("hb_detection_missed") == 0 and latency is not None,
        f"real backend, loss={fault_plan.link['loss']}, "
        f"fault={fault_plan.transport_fault}: victim detected "
        f"(missed={metrics.get('hb_detection_missed')}, latency={latency}); "
        f"false suspicions of live peers are legitimate under link loss "
        f"(hb_detection_ok={metrics.get('hb_detection_ok')})",
    )


def run_campaign(
    seed: int,
    *,
    scratch: str | os.PathLike,
    workers: int = 2,
    progress_timeout: float = 3.0,
    kv: bool = True,
    transport: bool = False,
) -> CampaignReport:
    """Run the full campaign for ``seed`` inside ``scratch``; see module doc.

    ``scratch`` must be a fresh directory the caller owns (and removes); the
    campaign fences ``TMPDIR`` into it so the temp-leak invariant can sweep
    one known place.  ``transport=True`` adds the real-TCP leg (seconds of
    wall clock, needs localhost sockets); ``kv=False`` skips the KV run for
    test speed.
    """
    scratch = Path(scratch)
    fault_plan = FaultPlan.from_seed(seed)
    report = CampaignReport(seed=seed, plan=fault_plan.to_dict())
    plan = soak_plan(seed)

    tmp_root = scratch / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    # The first spawn-context start launches multiprocessing's resource
    # tracker, a helper that by design lives until this interpreter exits:
    # start it now so it is part of the baseline, not a leaked worker.
    resource_tracker.ensure_running()
    children_before = _child_pids()
    saved_tempdir, saved_env = tempfile.tempdir, os.environ.get("TMPDIR")
    tempfile.tempdir = str(tmp_root)
    os.environ["TMPDIR"] = str(tmp_root)
    try:
        serial = Run(plan, scratch).reference
        cache = RunCache(scratch / "cache")
        state = scratch / "state"

        # Phase 1: a worker is SIGKILLed, then the coordinator itself dies.
        kill_after = fault_plan.kill_worker_after
        crash_after = kill_after + fault_plan.crash_after_chunks
        crashed = False
        try:
            Coordinator(
                plan,
                state_dir=state,
                workers=workers,
                cache=cache,
                progress_timeout=progress_timeout,
                chaos_kill_worker_after=kill_after,
                crash_after_chunks=crash_after,
            ).run()
        except SimulatedCrash as error:
            crashed = True
            report.applied.append(
                f"killed a worker after {kill_after} results, then {error}"
            )
        report.check(
            "coordinator_crash",
            crashed,
            f"worker SIGKILL after {kill_after} results + coordinator crash "
            f"after {crash_after} chunks "
            + ("rehearsed" if crashed else "NEVER FIRED"),
        )

        # Phase 2: damage what the crash left behind.
        mutilation_rng = random.Random(f"chaos-mutilate:{seed}")
        report.applied.extend(
            mutilate_journal(
                state / "shards",
                torn=fault_plan.torn_journal,
                foreign=fault_plan.foreign_line,
                rng=mutilation_rng,
            )
        )
        corrupted = corrupt_cache_entries(
            cache.root, fault_plan.corrupt_cache_entries, mutilation_rng
        )
        if corrupted:
            report.applied.append(f"corrupted {len(corrupted)} cache entries")

        # Phase 3: resume over the damaged state; must finish and match.
        resumed = Coordinator(
            None,
            state_dir=state,
            workers=workers,
            cache=cache,
            progress_timeout=progress_timeout,
            allow_partial=True,
        ).run()
        report.stats["resume"] = dict(resumed.stats)
        report.compare("merge", plan, serial, resumed.results, _declared_missing(state))

        # Phase 4: stall rehearsal — SIGSTOP a busy worker on a fresh state
        # dir; the progress deadline must recover it and converge anyway.
        stalled = Coordinator(
            plan,
            state_dir=scratch / "stall-state",
            workers=workers,
            cache=cache,
            progress_timeout=progress_timeout,
            allow_partial=True,
            chaos_stall_worker_after=fault_plan.stall_worker_after,
        ).run()
        report.stats["stall"] = dict(stalled.stats)
        report.applied.append(
            f"SIGSTOPped a busy worker after {fault_plan.stall_worker_after} results"
        )
        report.check(
            "stall_detected",
            stalled.stats["stalled_workers"] >= 1,
            f"progress deadline ({progress_timeout:g}s) killed "
            f"{stalled.stats['stalled_workers']} stalled worker(s) "
            f"after {stalled.stats['worker_deaths']} death(s) total",
        )
        report.compare(
            "stall_merge", plan, serial, stalled.results, _declared_missing(scratch / "stall-state")
        )

        # Phase 5: the service-level guarantees hold under the same seed.
        if kv:
            _kv_invariant(report, seed)
        if transport:
            _transport_invariant(report, fault_plan)
    finally:
        tempfile.tempdir = saved_tempdir
        if saved_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_env

    # Phase 6: hygiene — nothing outlives the campaign.
    leaked = sorted(_child_pids() - children_before)
    report.check(
        "no_orphans",
        not leaked,
        "no worker/node subprocess outlived the campaign"
        if not leaked
        else f"ORPHANED child PIDs: {leaked}",
    )
    leftovers = sorted(path.name for path in tmp_root.iterdir())
    report.check(
        "no_temp_leaks",
        not leftovers,
        "no temp dirs left behind"
        if not leftovers
        else f"LEAKED temp entries: {leftovers}",
    )
    return report
