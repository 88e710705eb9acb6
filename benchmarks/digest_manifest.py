"""Determinism-digest manifest over the quick deterministic experiments (E1–E12).

Runs every experiment in quick mode while capturing the determinism digest of
each underlying simulation, then prints one folded 64-bit digest per
experiment plus two manifest digests: ``ALL`` folds the historical E1–E9
core (frozen so manifests saved before the KV workload landed keep
matching), and ``FULL`` folds every registered deterministic experiment
(E10, E12, and whatever lands next fold in here without moving ``ALL``).

Two builds of the simulator that print the same manifest dispatched exactly
the same events, in the same order, for every run of every quick experiment —
which is the equivalence gate hot-path refactors must pass.  The same gate
covers the execution stack: ``--jobs`` routes the sweeps through the warm
process pool, ``--fabric`` through the sweep fabric, and the manifest must be
bit-identical to the serial one::

    PYTHONPATH=src python benchmarks/digest_manifest.py            # serial
    PYTHONPATH=src python benchmarks/digest_manifest.py -o m.json  # save JSON
    PYTHONPATH=src python benchmarks/digest_manifest.py --jobs 4 --check m.json
    PYTHONPATH=src python benchmarks/digest_manifest.py --fabric 3 --check m.json

``--check`` exits non-zero on any mismatch against a previously saved
manifest, so a refactor branch can assert equivalence mechanically.

Capture mechanics: :func:`repro.sim.scheduler.capture_digests` collects the
digest of every simulation completed in this process.  A parent-side capture
never reaches the ``spawn``-started pool workers, so through a pool the
dispatched function is additionally wrapped with
:func:`repro.runtime.run_with_digest_capture` — each worker returns its runs'
digests alongside the result and they are folded in input order, which equals
the serial execution order.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.fabric.digests import CORE_EXPERIMENTS, fold_digests as _fold, fold_named as _fold_named
from repro.runtime import Engine, executor_for, run_with_digest_capture
from repro.runtime.registry import EXPERIMENTS
from repro.sim.scheduler import capture_digests
# Only ALL_EXPERIMENTS (the deterministic E1-E10) is folded: wall-clock
# experiments (E11's real backend) are registered too but have no stable
# digest, so the manifests iterate this dict, not EXPERIMENTS.names().
from repro.experiments import ALL_EXPERIMENTS


class _DigestCapturingExecutor:
    """Wrap an executor so worker-side digests land in ``sink``, in input order."""

    def __init__(self, inner, sink: list[int]) -> None:
        self._inner = inner
        self._sink = sink
        self.jobs = inner.jobs

    def imap(self, fn, items):
        tasks = [(fn, item) for item in items]
        for result, digests in self._inner.imap(run_with_digest_capture, tasks):
            self._sink.extend(digests)
            yield result

    def map(self, fn, items):
        return list(self.imap(fn, items))

    def close(self) -> None:
        self._inner.close()


def _collect_serial(seed: int) -> dict[str, str]:
    """In-process capture (the reference the other modes must match)."""
    manifest: dict[str, str] = {}
    for name in ALL_EXPERIMENTS:
        runner = EXPERIMENTS.resolve(name)
        with capture_digests() as captured:
            runner(quick=True, seed=seed, engine=Engine())
        manifest[name] = f"{_fold(captured):016x}"
    return manifest


def _collect_pooled(seed: int, jobs: int) -> dict[str, str]:
    """Capture through the warm process pool (digests travel with results)."""
    manifest: dict[str, str] = {}
    sink: list[int] = []
    executor = _DigestCapturingExecutor(executor_for(jobs), sink)
    try:
        for name in ALL_EXPERIMENTS:
            sink.clear()
            runner = EXPERIMENTS.resolve(name)
            # Any simulation an experiment might run in the parent process —
            # outside engine dispatch — lands in the same sink, in call order.
            with capture_digests(sink):
                runner(quick=True, seed=seed, engine=Engine(executor))
            manifest[name] = f"{_fold(sink):016x}"
    finally:
        executor.close()
    return manifest


def _collect_fabric(seed: int, workers: int) -> dict[str, str]:
    """Capture through the sweep fabric: plan, shard across workers, fold.

    ``repro.fabric`` plans every deterministic experiment, a coordinator fans
    the items out to worker subprocesses (in a throwaway state directory, no
    cache — this gate is about fresh executions), and the journaled digests
    are folded per experiment span.  The result must be bit-identical
    to :func:`_collect_serial`.
    """
    import tempfile

    from repro.fabric import plan_experiments
    from repro.fabric.coordinator import Coordinator

    plan = plan_experiments(list(ALL_EXPERIMENTS), quick=True, seed=seed)
    with tempfile.TemporaryDirectory(prefix="digest-fabric-") as state_dir:
        return Coordinator(plan, state_dir=state_dir, workers=workers).run().experiment_digests()


def collect_manifest(
    seed: int = 0,
    *,
    jobs: int | None = None,
    fabric: int | None = None,
) -> dict[str, str]:
    """Run every experiment quick and return ``{experiment: folded digest}``."""
    if fabric is not None:
        manifest = _collect_fabric(seed, fabric)
    elif jobs is not None and jobs > 1:
        manifest = _collect_pooled(seed, jobs)
    else:
        manifest = _collect_serial(seed)
    experiment_names = list(manifest)
    core = [name for name in experiment_names if name in CORE_EXPERIMENTS]
    manifest["ALL"] = _fold_named(manifest, core)
    manifest["FULL"] = _fold_named(manifest, experiment_names)
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run the sweeps through a process pool of N workers "
        "(default: serial, in-process)",
    )
    parser.add_argument(
        "--fabric",
        type=int,
        default=None,
        metavar="N",
        help="run the sweeps through the distributed sweep fabric "
        "(repro.fabric coordinator + N worker subprocesses) instead of an "
        "in-process pool; the manifest must still be bit-identical",
    )
    parser.add_argument("-o", "--output", metavar="FILE", help="write the manifest as JSON")
    parser.add_argument(
        "--check", metavar="FILE", help="compare against a saved manifest; non-zero on mismatch"
    )
    args = parser.parse_args(argv)

    manifest = collect_manifest(seed=args.seed, jobs=args.jobs, fabric=args.fabric)
    for name, digest in manifest.items():
        print(f"{name:>4}  {digest}")

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"manifest written to {args.output}")

    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            expected = json.load(handle)
        mismatches = {
            name: (expected.get(name), digest)
            for name, digest in manifest.items()
            if expected.get(name) != digest
        }
        if mismatches:
            for name, (want, got) in mismatches.items():
                print(f"MISMATCH {name}: expected {want}, got {got}", file=sys.stderr)
            return 1
        print(f"manifest matches {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
