"""``python3 -m bench run|trace|selfcheck`` — see ``bench/README.md``.

``run --workload W --seed N --seconds S --trace 0|1`` measures one workload in
this process and prints a report followed, as the last line of standard
output, by the one-line JSON result the benchmark contract asks for.  Without
``--workload`` every workload runs, each in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from . import OUT, ROOT


def _report(result: dict, contract: dict) -> None:
    meta, line = result["meta"], result["line"]
    directions = {
        entry["name"]: entry["better"]
        for entry in contract["end_to_end"] + contract["per_layer"]
    }
    print(
        f"== {meta['workload']}  seed={meta['seed']} rounds={meta['rounds']} "
        f"trace={int(meta['trace'])} smoke={int(meta['smoke'])}  git={meta['git_sha']} "
        f"nproc={meta['nproc']} python={meta['python']} "
        f"calib.pyloop_ns={meta['calib.pyloop_ns']:.1f}"
    )
    print(
        f"   ops_attempted={meta['ops_attempted']} ops_failed={meta['ops_failed']} "
        f"ops_retried={meta['ops_retried']} digest={meta['digest']} inputs={meta['inputs']} "
        f"work_unit={meta['work_unit']}"
    )
    for step, seconds in meta["step_seconds"].items():
        print(
            f"   step {step:<16} median {seconds['median']:.4f} s  "
            f"min {seconds['min']:.4f}  max {seconds['max']:.4f}  n={meta['rounds']}"
        )
    print(f"   setup samples (s): {' '.join(f'{value:.3f}' for value in meta['setup_samples_s'])}")
    print(f"   facts: {json.dumps(meta['facts'], sort_keys=True, default=str)}")
    for step, shares in meta["fold_per_step"].items():
        top = sorted(shares.items(), key=lambda pair: -pair[1])[:4]
        print(f"   fold {step:<16} " + "  ".join(f"{name}={share:.2f}" for name, share in top))
    for name, metric in line["metrics"].items():
        print(f"   {name:<44} {metric['value']:>14.6g} {metric['unit']:<9} ({directions[name]} is better)")


def _run_one(args: argparse.Namespace) -> int:
    from . import harness

    if (os.cpu_count() or 1) < 2:
        print("bench: fewer than 2 cores; the pool and fabric legs will not run in parallel",
              file=sys.stderr)
    result = harness.run_workload(
        args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        smoke=args.smoke,
    )
    contract = harness.load_contract()
    _report(result, contract)
    out = args.out or OUT / f"result-{args.workload}-trace{args.trace}.json"
    OUT.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"meta": result["meta"], **result["line"]}, handle, indent=1, default=str)
    print(json.dumps(result["line"]))
    return 0


def _child(arguments: list[str]) -> dict:
    """Run ``python -m bench run ...`` in a fresh interpreter; its result line."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", *arguments],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _run_all(args: argparse.Namespace, names: list[str]) -> int:
    exit_code = 0
    for name in names:
        arguments = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        line = _child(arguments)
        print(f"{name}: correct={line['correct']} attempted={line['attempted']} failed={line['failed']}")
        for metric, value in line["metrics"].items():
            print(f"   {metric:<44} {value['value']:>14.6g} {value['unit']}")
        exit_code |= 0 if line["correct"] else 1
    return exit_code


def _setup(args: argparse.Namespace) -> int:
    """One set-up, timed by the parent (``harness.probe_setup``)."""
    from . import workloads

    workdir = OUT / f"setup-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed, smoke=args.smoke, workdir=workdir)
    ready = time.monotonic()
    workload.close()
    shutil.rmtree(workdir, ignore_errors=True)
    print(ready)
    return 0


def _spread(values: list[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def _selfcheck(args: argparse.Namespace, names: list[str]) -> int:
    """Two sets of runs of this checkout; the check the acceptance test makes.

    Per (metric, workload): both medians, how much worse the second is than
    the first, and the spread (interquartile range over median) of each set,
    all against the metric's bound.
    """
    from . import harness

    contract = harness.load_contract()
    exit_code = 0
    print(f"{'workload':<17}{'metric':<13}{'median 1':>12}{'median 2':>12}{'worse by':>10}"
          f"{'spread 1':>10}{'spread 2':>10}{'bound':>7}  verdict")
    for name in names:
        sets: list[dict[str, list[float]]] = [{}, {}]
        for samples in sets:
            for seed in range(args.runs):
                line = _child(["--workload", name, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", "0"])
                if not line["correct"]:
                    print(f"{name} seed {seed}: {line['failed']} of {line['attempted']} failed")
                    exit_code = 1
                for metric, value in line["metrics"].items():
                    samples.setdefault(metric, []).append(value["value"])
        for entry in contract["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            first, second = (statistics.median(samples[metric]) for samples in sets)
            worse = (second - first) / first * (1 if entry["better"] == "lower" else -1)
            spreads = [_spread(samples[metric]) if args.runs > 1 else 0.0 for samples in sets]
            steady = metric == "setup_s" or max(spreads) <= bound
            verdict = "ok" if worse <= bound and steady else "FAIL"
            exit_code |= verdict != "ok"
            print(f"{name:<17}{metric:<13}{first:>12.5g}{second:>12.5g}{worse:>+10.1%}"
                  f"{spreads[0]:>10.1%}{spreads[1]:>10.1%}{bound:>7.0%}  {verdict}", flush=True)
    return exit_code


def main(argv: list[str] | None = None) -> int:
    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument("command", choices=("run", "trace", "selfcheck", "setup"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one round, one set-up probe (for the tests)")
    parser.add_argument("--out", help="write the full result JSON here "
                        "(default bench/out/result-<workload>-trace<t>.json)")
    parser.add_argument("--runs", type=int, default=10,
                        help="selfcheck: runs per set, seeds 0..runs-1")
    args = parser.parse_args(argv)
    if args.seconds is None:
        from .harness import load_contract

        args.seconds = float(load_contract()["run_seconds"])
    if args.command == "trace":
        args.trace = 1
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.command == "setup":
        return _setup(args)
    if args.command == "selfcheck":
        return _selfcheck(args, names)
    if args.workload:
        return _run_one(args)
    return _run_all(args, names)


if __name__ == "__main__":
    from .procs import supervised

    sys.exit(supervised(main))
