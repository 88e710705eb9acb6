"""The fabric coordinator: determinism, cache interplay, crashes, resume.

These tests spawn real worker processes, so they use the smallest plan that
still exercises every path: a raw 8-item sweep of E1's ``_run_one`` at n=3
(a few ms per run).
"""

from __future__ import annotations

import json
import os
from functools import partial
from pathlib import Path

import pytest

from repro.analysis.runner import ParameterSweep
from repro.events import read_events
from repro.experiments.e1_ohp_convergence import _run_one as run_one_e1
from repro.fabric import execute_item, plan_experiments, plan_sweep
from repro.fabric.coordinator import Coordinator, FabricError
from repro.runtime import Engine
from repro.runtime.cache import RunCache
from repro.verify.faults import ChaosFleet, SimulatedCrash


@pytest.fixture
def tiny_plan():
    sweep = ParameterSweep(
        {
            "n": [3],
            "distinct_ids": [1, 3],
            "gst": [2.0],
            "delta": [0.5, 1.0],
            "fixed_timeout": [False],
        },
        repetitions=2,
        base_seed=0,
    )
    return plan_sweep(run_one_e1, sweep, name="tiny")


def _merged_bytes(result) -> bytes:
    return Path(result.merged_path).read_bytes()


def _journals(state: Path) -> list[str]:
    return sorted(path.name for path in (state / "shards").iterdir())


def test_coordinator_merges_in_input_order(tiny_plan, tmp_path) -> None:
    """Sharded output must equal the serial engine's, row for row — and be
    identical across worker counts."""
    serial_rows = Engine().sweep(run_one_e1, [dict(i.payload["config"]) for i in tiny_plan.items])
    one = Coordinator(tiny_plan, state_dir=tmp_path / "w1", workers=1).run()
    three = Coordinator(tiny_plan, state_dir=tmp_path / "w3", workers=3).run()
    canonical = [json.loads(json.dumps(row, sort_keys=True, default=str)) for row in serial_rows]
    assert one.rows == canonical
    assert three.rows == canonical
    assert _merged_bytes(one) == _merged_bytes(three)
    assert one.stats["fresh"] == len(tiny_plan)
    assert one.digests_complete
    assert one.experiment_digests() == three.experiment_digests()


def test_coordinator_requeues_after_worker_kill(tiny_plan, tmp_path) -> None:
    """SIGKILLing a worker mid-chunk loses nothing: the victim held a chunk,
    its unfinished remainder is requeued and the output stays byte-identical."""
    clean = Coordinator(tiny_plan, state_dir=tmp_path / "clean", workers=2).run()
    chaotic = Coordinator(
        tiny_plan,
        state_dir=tmp_path / "chaos",
        workers=2,
        fleet=partial(ChaosFleet, kill_after=2),
    ).run()
    (death,) = [
        line
        for line in read_events(tmp_path / "chaos" / "shards" / "run00.jsonl")
        if line["event"] == "failed"
    ]
    assert death["died"] and death["unfinished"] and death["next"] == "requeued"
    assert chaotic.stats["worker_deaths"] == chaotic.stats["requeued_chunks"] == 1
    assert _merged_bytes(chaotic) == _merged_bytes(clean)
    assert chaotic.experiment_digests() == clean.experiment_digests()


def test_a_fault_fires_after_the_event_that_aimed_it_is_journaled(
    tiny_plan, tmp_path, monkeypatch
) -> None:
    """The event that crossed a threshold is handled before the fault: at the
    SIGKILL the journal holds every result up to it, and a crash after two
    chunks (one worker, two items a chunk) leaves exactly their four results."""
    coordinator = Coordinator(
        tiny_plan, state_dir=tmp_path / "state", workers=2, fleet=partial(ChaosFleet, kill_after=3)
    )
    journaled_at_kill = []
    kill = os.kill

    def spy(pid: int, signum: int) -> None:
        journaled_at_kill.append(len(coordinator.journaled()))
        kill(pid, signum)

    monkeypatch.setattr(os, "kill", spy)
    coordinator.run()
    assert journaled_at_kill and journaled_at_kill[0] >= 3

    crashing = Coordinator(
        tiny_plan, state_dir=tmp_path / "crash", workers=1,
        fleet=partial(ChaosFleet, crash_after_chunks=2),
    )
    with pytest.raises(SimulatedCrash):
        crashing.run()
    assert len(crashing.journaled()) == 4


def test_coordinator_crash_and_resume(tiny_plan, tmp_path) -> None:
    """A coordinator killed mid-sweep resumes from its journals and converges
    to the identical merged output, executing only the missing items."""
    reference = Coordinator(tiny_plan, state_dir=tmp_path / "ref", workers=2).run()
    state = tmp_path / "crashing"
    with pytest.raises(SimulatedCrash):
        Coordinator(
            tiny_plan, state_dir=state, workers=2, fleet=partial(ChaosFleet, crash_after_chunks=2)
        ).run()
    assert _journals(state) == ["run00.jsonl"]
    # resume without re-passing the plan: the frozen plan.json drives it
    resumed = Coordinator(None, state_dir=state, workers=2).run()
    assert resumed.stats["from_journal"] > 0
    assert resumed.stats["dispatched"] < len(tiny_plan)
    assert _merged_bytes(resumed) == _merged_bytes(reference)
    # a second resume is a pure journal replay: nothing left to dispatch
    replay = Coordinator(None, state_dir=state, workers=2).run()
    assert replay.stats["dispatched"] == 0
    assert _merged_bytes(replay) == _merged_bytes(reference)
    # one journal per run that dispatched something, numbered by the runs before it
    assert _journals(state) == ["run00.jsonl", "run01.jsonl"]


def test_coordinator_ignores_torn_and_foreign_journal_lines(tiny_plan, tmp_path) -> None:
    state = tmp_path / "state"
    crash_after_one = partial(ChaosFleet, crash_after_chunks=1)
    with pytest.raises(SimulatedCrash):
        Coordinator(tiny_plan, state_dir=state, workers=1, fleet=crash_after_one).run()
    shard = next((state / "shards").glob("*.jsonl"))
    with open(shard, "a", encoding="utf-8") as handle:
        handle.write('{"index": 0, "key": "wrong-key", "row": {}}\n')  # foreign
        handle.write('{"index": 2, "row": {"tru')  # torn tail
    resumed = Coordinator(None, state_dir=state, workers=1).run()
    assert len(resumed.results) == len(tiny_plan)
    assert resumed.digests_complete


def test_state_dir_is_bound_to_one_plan(tiny_plan, tmp_path) -> None:
    state = tmp_path / "state"
    Coordinator(tiny_plan, state_dir=state, workers=1).run()
    other = plan_experiments(["E1"], quick=True, seed=0)
    with pytest.raises(FabricError, match="different plan"):
        Coordinator(other, state_dir=state, workers=1)
    with pytest.raises(FabricError, match="no plan"):
        Coordinator(None, state_dir=tmp_path / "empty")


def test_shared_cache_serves_resumed_runs(tiny_plan, tmp_path) -> None:
    """Workers populate the shared RunCache; a second fabric run over a fresh
    state dir re-executes nothing and still reproduces rows *and* digests."""
    cache = RunCache(tmp_path / "cache")
    first = Coordinator(
        tiny_plan, state_dir=tmp_path / "a", workers=2, cache=cache
    ).run()
    second = Coordinator(
        tiny_plan, state_dir=tmp_path / "b", workers=2, cache=cache
    ).run()
    assert second.stats["cached"] == len(tiny_plan)
    assert len(cache) == len(tiny_plan)  # one entry per item, whoever wrote it
    assert second.stats["fresh"] == 0
    assert _merged_bytes(second) == _merged_bytes(first)
    assert second.experiment_digests() == first.experiment_digests()
    assert second.digests_complete


def test_execute_item_cache_levels(tiny_plan, tmp_path) -> None:
    """In-process item execution: fresh → cached, one entry per item; and an
    entry an ordinary engine run wrote is served *with* its digests."""
    cache = RunCache(tmp_path / "cache")
    item = tiny_plan.items[0]
    fresh = execute_item(item, cache)
    assert fresh.source == "fresh" and fresh.digests
    again = execute_item(item, cache)
    assert again.source == "cached"
    assert again.row == fresh.row and again.digests == fresh.digests
    assert len(cache) == 1
    other = RunCache(tmp_path / "engine")
    Engine(cache=other).sweep(run_one_e1, [dict(item.payload["config"])])
    served = execute_item(item, other)
    assert served.source == "cached"
    assert served.row == fresh.row and served.digests == fresh.digests


def test_experiments_cli_shard_concatenation(tmp_path, capsys) -> None:
    """`--shard i/N` shards compose: cat shard1..N == the serial --jsonl."""
    from repro.experiments.__main__ import main

    serial = tmp_path / "serial.jsonl"
    assert main(["E1", "--jsonl", str(serial), "-o", str(tmp_path / "r.txt")]) == 0
    pieces = []
    for index in (1, 2, 3):
        shard = tmp_path / f"shard{index}.jsonl"
        assert main(["E1", "--shard", f"{index}/3", "--jsonl", str(shard)]) == 0
        pieces.append(shard.read_bytes())
    assert b"".join(pieces) == serial.read_bytes()
    # a flag --shard cannot honour is an error naming it, not silently dropped
    for flags, named in (
        (["--jobs", "4"], "--jobs"),
        (["--stream"], "--stream"),
        (["--format", "json"], "--format"),
        (["-o", str(tmp_path / "never.txt")], "--output"),
    ):
        with pytest.raises(SystemExit) as usage:
            main(["E1", "--shard", "1/3", *flags])
        assert usage.value.code == 2 and f"{named} does not apply" in capsys.readouterr().err
    assert not (tmp_path / "never.txt").exists()


def test_stalled_worker_is_detected_and_the_run_converges(tiny_plan, tmp_path) -> None:
    """A SIGSTOPped worker must never hang the run: the per-chunk progress
    deadline detects the silence, kills the worker, requeues its chunk, and
    the merged output still matches a clean run bit for bit."""
    clean = Coordinator(tiny_plan, state_dir=tmp_path / "clean", workers=2).run()
    stalled = Coordinator(
        tiny_plan,
        state_dir=tmp_path / "stall",
        workers=2,
        progress_timeout=0.3,
        fleet=partial(ChaosFleet, stall_after=2),
    ).run()
    assert stalled.stats["stalled_workers"] >= 1
    assert stalled.stats["worker_deaths"] >= 1
    assert not stalled.partial
    assert _merged_bytes(stalled) == _merged_bytes(clean)
    assert stalled.experiment_digests() == clean.experiment_digests()


def _poison_plan():
    """16 sweep items — one worker's chunk holds 4 — and the config at index 1
    os._exit()s the whole worker."""
    return plan_sweep(
        "tests.helpers.poison_run_one",
        [{"x": index, "poison": index == 1} for index in range(16)],
        name="poison",
    )


def test_poison_item_is_bisected_quarantined_and_reported(tmp_path) -> None:
    """One config that hard-kills its worker must not sink the sweep: after
    retries exhaust, the chunk is bisected until the poison item stands
    alone, the item is quarantined, and partial.json names it exactly."""
    state = tmp_path / "state"
    coordinator = Coordinator(
        _poison_plan(),
        state_dir=state,
        workers=1,
        max_retries=0,
    )
    with pytest.raises(FabricError, match=r"quarantined after exhausting .*\[1\]"):
        coordinator.run()

    partial = json.loads((state / "partial.json").read_text())
    assert partial["missing_indices"] == [1]
    assert partial["plan_items"] == 16
    record = partial["items"]["1"]
    # the record tells the whole retry story: the original chunk attempt
    # plus the solo attempt after bisection, each with its cause
    assert record["attempts"] == len(record["history"]) >= 2
    assert all("attempt" in line for line in record["history"])

    # resuming with allow_partial completes every innocent neighbour and
    # merges explicitly partial — the poison index is skipped, not silent
    resumed = Coordinator(
        None, state_dir=state, workers=1, max_retries=0, allow_partial=True
    ).run()
    assert resumed.partial
    assert sorted(resumed.quarantined) == [1]
    assert resumed.stats["quarantined"] == 1
    rows = [json.loads(line) for line in _merged_bytes(resumed).decode().splitlines()]
    innocent = [index for index in range(16) if index != 1]
    assert [row["x"] for row in rows] == innocent
    assert [row["value"] for row in rows] == [2 * index for index in innocent]


def test_bisection_rescues_innocent_chunk_mates(tmp_path) -> None:
    """The bisection counter actually ticks, and every non-poison item's
    result survives even though they shared the poison item's chunk."""
    state = tmp_path / "state"
    coordinator = Coordinator(
        _poison_plan(),
        state_dir=state,
        workers=1,
        max_retries=0,
        allow_partial=True,
    )
    result = coordinator.run()
    assert result.stats["bisected_chunks"] >= 1
    assert result.stats["worker_deaths"] >= 2  # original chunk + solo retry
    assert sorted(r.index for r in result.results) == [i for i in range(16) if i != 1]

    # The failure story is read from the journal's ``failed`` lines, nothing else.
    failed = [e for e in read_events(state / "shards" / "run00.jsonl") if e["event"] == "failed"]
    steps = [line["next"] for line in failed]
    assert result.stats["worker_deaths"] == sum(line["died"] for line in failed)
    assert result.stats["bisected_chunks"] == steps.count("bisected")
    assert result.stats["quarantined"] == steps.count("quarantined") == 1
    story = [
        f"attempt {line['attempt']} on chunk {line['chunk']} "
        f"(items {line['items'][0]}..{line['items'][1]}): {line['cause']} "
        f"({line['journaled']}/{line['of']} item(s) journaled)"
        for line in failed
        if 1 in line.get("unfinished", ())
    ]
    history = json.loads((state / "partial.json").read_text())["items"]["1"]["history"]
    assert history == story and len(story) >= 2


def test_resume_survives_torn_tail_and_interleaved_foreign_lines(tiny_plan, tmp_path) -> None:
    """Journal damage in the middle of the file — not just appended at the
    end: foreign lines interleaved *between* valid results plus a torn final
    line.  The loader must keep every intact line, drop everything else, and
    the resumed run must converge to the reference bytes."""
    reference = Coordinator(tiny_plan, state_dir=tmp_path / "ref", workers=1).run()
    state = tmp_path / "state"
    crash_after_two = partial(ChaosFleet, crash_after_chunks=2)
    with pytest.raises(SimulatedCrash):
        Coordinator(tiny_plan, state_dir=state, workers=1, fleet=crash_after_two).run()

    victim = max((state / "shards").glob("*.jsonl"), key=lambda p: p.stat().st_size)
    lines = victim.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) >= 2, "need at least two journaled results to interleave"
    doctored: list[str] = []
    for line in lines[:-1]:
        doctored.append(line)
        doctored.append("this is not even JSON\n")
        doctored.append('{"index": 0, "unrelated": true}\n')
        doctored.append('{"index": 0, "key": "row-0000000000000000", "row": {}}\n')
    doctored.append(lines[-1][: len(lines[-1]) // 2])  # torn mid-line, no newline
    victim.write_text("".join(doctored), encoding="utf-8")

    resumed = Coordinator(None, state_dir=state, workers=1).run()
    assert len(resumed.results) == len(tiny_plan)
    assert resumed.stats["from_journal"] >= len(lines) - 1  # intact lines kept
    assert not resumed.partial
    assert _merged_bytes(resumed) == _merged_bytes(reference)
    assert resumed.experiment_digests() == reference.experiment_digests()
