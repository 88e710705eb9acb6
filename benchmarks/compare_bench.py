"""Compare two BENCH_core.json files and print the per-benchmark delta.

Usage::

    python benchmarks/compare_bench.py BASELINE.json CURRENT.json [--max-regression PCT]

Prints one line per benchmark key (median seconds, ns/event when available,
and the relative change; negative = faster).  With ``--max-regression`` the
comparison is a *gate*: the exit status is non-zero when any shared
benchmark's median slowed down by more than the given percentage, when a
tracked benchmark vanished from the current results, or when a pair of
current rows breaks one of the :data:`RATIO_RULES`.
CI runs the gate at 25% — generous because shared runners are noisy, but a
real regression in any tracked median now fails the build instead of
scrolling past as information.  A baseline row may carry its own
``max_regression_pct`` which overrides the global budget for that row only
(the wall-clock transport rows use this: subprocess scheduling noise dwarfs
a sim median's jitter).  The committed baseline is refreshed deliberately,
not by CI.
"""

from __future__ import annotations

import argparse
import json
import sys

#: ``(numerator row, denominator row, limit)`` on ``median_ns_per_event`` of
#: the *current* results.  A ratio of two rows measured in the same session
#: survives a machine change, which an absolute median does not: the ring
#: monitor's per-event host cost must not grow with n (an O(n) scan on its
#: per-tick path shows up as ~10x here).
RATIO_RULES = [("membership_ring_n1000", "membership_ring_n100", 2.0)]


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload.get("benchmarks", {})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=None,
        metavar="PCT",
        help="fail when any benchmark slows down by more than PCT percent",
    )
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    current = _load(args.current)
    keys = sorted(set(baseline) | set(current))
    width = max((len(key) for key in keys), default=10)
    over_budget: list[tuple[str, float, float]] = []
    missing_in_current: list[str] = []
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  {'delta':>8}")
    for key in keys:
        old = baseline.get(key)
        new = current.get(key)
        if old is None or new is None:
            status = "baseline-only" if new is None else "new"
            if new is None:
                missing_in_current.append(key)
            known = old or new
            print(f"{key:<{width}}  {known['median_seconds']:>12.6f}  {'—':>12}  ({status})")
            continue
        old_median = old["median_seconds"]
        new_median = new["median_seconds"]
        change = (new_median - old_median) / old_median * 100.0
        # A baseline row may carry its own budget (wall-clock rows from the
        # real transport backend are far noisier than sim medians); it
        # overrides the global --max-regression for that row only.
        if args.max_regression is not None:
            limit = float(old.get("max_regression_pct", args.max_regression))
            if change > limit:
                over_budget.append((key, change, limit))
        per_event = ""
        if "median_ns_per_event" in new and "median_ns_per_event" in old:
            per_event = (
                f"   ({old['median_ns_per_event']:,.0f} → "
                f"{new['median_ns_per_event']:,.0f} ns/event)"
            )
        print(
            f"{key:<{width}}  {old_median:>12.6f}  {new_median:>12.6f}  "
            f"{change:>+7.1f}%{per_event}"
        )
    broken_ratios: list[str] = []
    for numerator, denominator, limit in RATIO_RULES:
        if numerator in current and denominator in current:
            ratio = (
                current[numerator]["median_ns_per_event"]
                / current[denominator]["median_ns_per_event"]
            )
            line = f"{numerator} / {denominator} per event: {ratio:.2f} (limit {limit:g})"
            print(line)
            if ratio > limit:
                broken_ratios.append(line)
    if args.max_regression is not None:
        # A benchmark that vanished from the current results is a failure in
        # gated mode: either it crashed (the worst regression of all) or its
        # coverage was silently dropped.
        if missing_in_current:
            print(
                f"FAIL: benchmark(s) missing from current results: "
                f"{', '.join(missing_in_current)}",
                file=sys.stderr,
            )
            return 1
        for key, change, limit in over_budget:
            print(f"FAIL: {key} regressed {change:+.1f}% (budget {limit:.1f}%)", file=sys.stderr)
        for line in broken_ratios:
            print(f"FAIL: {line}", file=sys.stderr)
        if over_budget or broken_ratios:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
