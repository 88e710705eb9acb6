"""The verifier: its legs pass on a small plan, and its comparison can fail.

The default selection (187 items, the pinned ``ALL`` / ``FULL``, ~8 s per
leg) and the ``kill`` / ``stall`` / ``resume`` legs run in CI's ``verify``
job; the chaos kwargs those three pass are exercised in tier-1 by
``test_chaos_campaign.py`` through the same :meth:`Report.compare`.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.fabric import plan_experiments
from repro.verify import LEGS, Report, Run, verify

#: The smallest selection with sweep (E1), map (E3) and spec (E10) items; E3
#: pins the "engine JSONL = plan rows minus ``map`` items" relation.
SELECTION = ["E1", "E3", "E10"]
TIER1_LEGS = ["serial", "pool", "fabric", "shards", "warm-cache", "engine"]


def test_every_way_of_executing_a_plan_yields_the_serial_bytes(capsys) -> None:
    assert set(TIER1_LEGS) | {"kill", "stall", "resume"} == set(LEGS)
    report = verify(SELECTION, legs=TIER1_LEGS)
    assert report.ok, [(i.name, i.detail) for i in report.invariants if not i.ok]
    verdicts = {invariant.name for invariant in report.invariants}
    assert set(TIER1_LEGS) <= verdicts  # every leg reported, none silently skipped
    printed = capsys.readouterr().out.split()
    assert printed[::2] == SELECTION + ["ALL", "FULL"]  # the diff-able manifest


@pytest.fixture(scope="module")
def e1(tmp_path_factory):
    plan = plan_experiments(["E1"])
    return plan, Run(plan, tmp_path_factory.mktemp("e1")).reference


def _flip_a_digest(results):
    results[5] = replace(results[5], digests=(results[5].digests[0] ^ 1, *results[5].digests[1:]))


def _swap_two_rows(results):
    results[2], results[9] = results[9], results[2]


def _drop_a_row(results):
    del results[7]


def _change_a_row(results):
    results[11] = replace(results[11], row={**results[11].row, "seed": -1})


@pytest.mark.parametrize(
    "tamper, index, problem",
    [
        (_flip_a_digest, 5, "digests differ"),
        (_swap_two_rows, 2, "out of place"),
        (_drop_a_row, 7, "row is missing"),
        (_change_a_row, 11, "row bytes differ"),
    ],
)
def test_the_comparison_names_the_leg_and_the_item_that_differs(e1, tamper, index, problem) -> None:
    plan, reference = e1
    results = list(reference)
    tamper(results)
    report = Report()
    report.compare("pool", plan, reference, results)
    (verdict,) = report.invariants
    assert not report.ok and verdict.name == "pool"
    assert verdict.detail.startswith(f"item {index} ({plan.items[index].label})")
    assert problem in verdict.detail


def test_a_declared_partial_run_must_miss_exactly_what_it_declares(e1) -> None:
    plan, reference = e1
    partial = [result for result in reference if result.index != 7]
    report = Report()
    report.compare("merge", plan, reference, partial, missing=[7])
    assert report.ok and "declared missing: [7]" in report.invariants[0].detail
    report.compare("merge", plan, reference, reference, missing=[7])  # declared lost, yet present
    assert not report.ok and report.invariants[1].detail.startswith("item 7 ")
