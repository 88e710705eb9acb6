"""The verifier: every leg passes on a small plan, and every verdict can fail.

The default selection (187 items, the pinned ``ALL`` / ``FULL``, ~8 s per
leg) runs in CI's ``verify`` job, at seed 0 and at seed 7 on the small one.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace

import pytest

from repro.events import EventLog
from repro.fabric import plan_experiments, plan_sweep
from repro.fabric.coordinator import Coordinator
from repro.fabric.work import ItemResult
from repro.runtime.cache import RunCache
from repro.verify import LEGS, ChaosPlan, Report, Run, verify
from repro.verify.__main__ import main
from repro.verify.faults import corrupt_cache_entries, mutilate_journal

#: A small selection with sweep (E1) and spec (E3, E10) items: the engine's
#: JSONL is every plan row.
SELECTION = ["E1", "E3", "E10"]


def test_every_way_of_executing_a_plan_yields_the_serial_bytes(capsys) -> None:
    """Seed 1's whole gauntlet: worker SIGKILL, SIGSTOP, coordinator crash over
    torn and salted journals and a corrupted cache, and the hygiene verdicts."""
    report = verify(SELECTION, seed=1)
    assert report.ok, [(i.name, i.detail) for i in report.invariants if not i.ok]
    verdicts = [invariant.name for invariant in report.invariants]
    fired = [f"{leg}.fired" for leg in ("kill", "stall", "resume")]
    # every leg reported, none silently skipped; the chaos legs say it happened
    assert set(verdicts) == {*LEGS, *fired, "warm-cache.served", "no_orphans", "no_temp_leaks"}
    assert len(verdicts) == 15
    (resumed,) = [i.detail for i in report.invariants if i.name == "resume.fired"]
    assert "tore the last line" in resumed and "foreign lines" in resumed  # seed 1: both
    assert "corrupted 1 cache entries" in resumed
    printed = capsys.readouterr().out.split()
    assert printed[::2] == SELECTION + ["ALL", "FULL"]  # the diff-able manifest


@pytest.mark.parametrize("leftover", ["child", "file"])
def test_a_leg_that_leaves_something_behind_fails_hygiene(monkeypatch, leftover) -> None:
    children = []

    def leaky(run: Run) -> None:
        if leftover == "child":
            children.append(subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"]))
        else:
            os.close(tempfile.mkstemp(prefix="leak-")[0])

    monkeypatch.setitem(LEGS, "leaky", leaky)
    try:
        report = verify(["E1"], legs=["leaky"])
    finally:
        for child in children:
            child.kill()
            child.wait()
    verdicts = {invariant.name: invariant for invariant in report.invariants}
    red = "no_orphans" if leftover == "child" else "no_temp_leaks"
    green = {"no_orphans", "no_temp_leaks"} - {red}
    assert not verdicts[red].ok and all(verdicts[name].ok for name in green)
    assert (str(children[0].pid) if children else "leak-") in verdicts[red].detail


def test_a_crash_that_never_fires_turns_resume_red(monkeypatch) -> None:
    """More chunks to wait for than the plan has: no crash, so no resume to believe."""
    monkeypatch.setattr(Run, "chaos", replace(ChaosPlan.from_seed(0), crash_after_chunks=10**6))
    report = verify(["E1"], legs=["resume"])
    verdicts = {invariant.name: invariant for invariant in report.invariants}
    assert set(verdicts) == {"resume.fired", "no_orphans", "no_temp_leaks"}
    assert not verdicts["resume.fired"].ok and "never fired" in verdicts["resume.fired"].detail
    assert verdicts["no_orphans"].ok and verdicts["no_temp_leaks"].ok


def test_the_cli_takes_a_seed_and_answers_help(capsys) -> None:
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0 and "--seed" in capsys.readouterr().out
    assert main(["--seed", "3", "E99"]) == 2
    assert "unknown experiment(s): E99" in capsys.readouterr().err


# -- the seed aims the chaos ---------------------------------------------------


def test_the_chaos_plan_is_a_pure_function_of_the_seed() -> None:
    assert ChaosPlan.from_seed(41) == ChaosPlan.from_seed(41)
    assert ChaosPlan.from_seed(41) != ChaosPlan.from_seed(42)
    assert str(ChaosPlan.from_seed(41)).startswith("seed 41: ")  # one report line


@pytest.mark.parametrize(
    "seed, aimed",
    [
        (0, (1, 3, 2, True, True, 3)),
        (1, (4, 3, 1, True, True, 1)),
        (7, (1, 6, 3, False, True, 3)),
    ],
)
def test_a_seed_aims_what_it_always_aimed(seed, aimed) -> None:
    """Seeds name faults in bug reports, so their draws must never move."""
    plan = ChaosPlan.from_seed(seed)
    assert (
        plan.kill_worker_after,
        plan.stall_worker_after,
        plan.crash_after_chunks,
        plan.torn_journal,
        plan.foreign_line,
        plan.corrupt_cache_entries,
    ) == aimed


def test_chaos_plan_draws_stay_in_their_envelopes() -> None:
    plans = [ChaosPlan.from_seed(seed) for seed in range(50)]
    for plan in plans:
        assert 1 <= plan.kill_worker_after <= 4
        assert 2 <= plan.stall_worker_after <= 6
        assert 1 <= plan.crash_after_chunks <= 3
        assert 1 <= plan.corrupt_cache_entries <= 3
    # the 0.75 toggles actually vary across seeds (both branches exercised)
    assert {plan.torn_journal for plan in plans} == {True, False}
    assert {plan.foreign_line for plan in plans} == {True, False}


# -- the one comparison ----------------------------------------------------------


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


# -- journal mutilation vs the loader's contract ---------------------------------


def _journal_fixture(tmp_path):
    """A frozen 4-item plan plus one run journal holding all 4 results."""
    plan = plan_sweep(
        "tests.helpers.poison_run_one",
        [{"x": index} for index in range(4)],
        name="mutilate",
    )
    state = tmp_path / "state"
    coordinator = Coordinator(plan, state_dir=state, workers=1)
    shards = coordinator.shards_dir
    with EventLog(shards / "run00.jsonl", epoch=0.0) as log:
        for item in plan.items:
            result = ItemResult(index=item.index, key=item.key, row={"x": item.index})
            log.log("result", **result.to_dict())
    return coordinator, shards


def test_mutilated_journal_loses_only_the_torn_line(tmp_path) -> None:
    coordinator, shards = _journal_fixture(tmp_path)
    applied = mutilate_journal(
        shards, torn=True, foreign=True, rng=random.Random(41)
    )
    assert len(applied) == 3  # tear + foreign lines + trailing fragment
    have = coordinator.journaled()
    # the torn final line is gone; every intact line survives; none of the
    # three foreign lines (non-JSON, wrong shape, unknown key) leaks in
    assert sorted(have) == [0, 1, 2]
    assert all(have[index].key == coordinator.plan.items[index].key for index in have)


def test_untouched_journal_loads_fully(tmp_path) -> None:
    coordinator, shards = _journal_fixture(tmp_path)
    assert mutilate_journal(
        shards, torn=False, foreign=False, rng=random.Random(0)
    ) == []
    assert sorted(coordinator.journaled()) == [0, 1, 2, 3]


def test_mutilate_journal_on_empty_dir_is_a_noop(tmp_path) -> None:
    empty = tmp_path / "shards"
    empty.mkdir()
    assert mutilate_journal(empty, torn=True, foreign=True, rng=random.Random(0)) == []


# -- cache corruption vs the corrupt-entry-is-a-miss contract --------------------


def test_corrupted_cache_entries_read_as_misses(tmp_path) -> None:
    cache = RunCache(tmp_path)
    keys = [f"entry-{index}" for index in range(5)]
    for key in keys:
        assert cache.put(key, {"value": key})
    victims = corrupt_cache_entries(tmp_path, 2, random.Random(41))
    assert len(victims) == 2
    corrupted = {name.removesuffix(".json") for name in victims}
    for key in keys:
        payload = cache.get(key)
        if key in corrupted:
            assert payload is None  # corrupt == miss, never an exception
            assert cache.put(key, {"value": key})  # and the slot heals
            assert cache.get(key) == {"value": key}
        else:
            assert payload == {"value": key}


def test_corrupt_cache_entries_on_empty_cache_is_a_noop(tmp_path) -> None:
    assert corrupt_cache_entries(tmp_path, 3, random.Random(0)) == []
