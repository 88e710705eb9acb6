"""Chaos campaigns: seeded plans, journal/cache mutilation, link shaping.

Everything here is tier-1 safe: the link-shaping tests drive
:class:`ShapedLink` against a fake writer (no sockets), and the one
end-to-end campaign runs with the KV and real-TCP legs disabled — worker
subprocesses and SIGKILL/SIGSTOP injections included, a few seconds of wall
clock.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.chaos import CampaignReport, FaultPlan, run_campaign
from repro.chaos.campaign import corrupt_cache_entries, mutilate_journal
from repro.errors import ConfigurationError
from repro.fabric import plan_sweep
from repro.fabric.coordinator import Coordinator
from repro.fabric.work import ItemResult
from repro.runtime.cache import RunCache
from repro.transport.node import LINK_PARAM_KEYS, ShapedLink, validate_link_params
from repro.transport.orchestrator import (
    DEFAULT_READY_TIMEOUT,
    resolve_timeouts,
)


# -- FaultPlan: one seed determines everything ------------------------------


def test_fault_plan_is_a_pure_function_of_the_seed() -> None:
    assert FaultPlan.from_seed(41) == FaultPlan.from_seed(41)
    assert FaultPlan.from_seed(41) != FaultPlan.from_seed(42)
    # and it stays replayable as a dict (what the campaign report embeds)
    assert FaultPlan.from_seed(41).to_dict() == FaultPlan.from_seed(41).to_dict()


def test_fault_plan_draws_stay_in_their_envelopes() -> None:
    for seed in range(50):
        plan = FaultPlan.from_seed(seed)
        assert 1 <= plan.kill_worker_after <= 4
        assert 2 <= plan.stall_worker_after <= 6
        assert 1 <= plan.crash_after_chunks <= 3
        assert 1 <= plan.corrupt_cache_entries <= 3
        assert plan.link["loss"] in (0.05, 0.1, 0.15)
        assert plan.link["delay"] in (0.0, 0.1)
        assert plan.link["seed"] == seed
        assert plan.transport_fault in ("kill", "suspend")
        validate_link_params(dict(plan.link))  # every plan's link is runnable


def test_fault_plan_injection_list_reflects_the_toggles() -> None:
    seeds = range(50)
    plans = [FaultPlan.from_seed(seed) for seed in seeds]
    for plan in plans:
        kinds = [injection.kind for injection in plan.injections()]
        assert ("torn_journal" in kinds) == plan.torn_journal
        assert ("foreign_journal_line" in kinds) == plan.foreign_line
        assert kinds.count("kill_worker") == 1
        assert kinds.count("shaped_link") == 1
    # the 0.75 toggles actually vary across seeds (both branches exercised)
    assert {plan.torn_journal for plan in plans} == {True, False}
    assert {plan.foreign_line for plan in plans} == {True, False}


# -- journal mutilation vs the loader's contract ----------------------------


def _journal_fixture(tmp_path):
    """A frozen 4-item plan plus one shard journal holding all 4 results."""
    plan = plan_sweep(
        "tests.helpers.poison_run_one",
        [{"x": index} for index in range(4)],
        name="mutilate",
    )
    state = tmp_path / "state"
    coordinator = Coordinator(plan, state_dir=state, workers=1)
    shards = coordinator.shards_dir
    shards.mkdir(parents=True, exist_ok=True)
    with open(shards / "chunk000.jsonl", "w", encoding="utf-8") as handle:
        for item in plan.items:
            result = ItemResult(index=item.index, key=item.key, row={"x": item.index})
            handle.write(json.dumps(result.to_dict()) + "\n")
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


# -- cache corruption vs the corrupt-entry-is-a-miss contract ---------------


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


# -- ShapedLink: the real backend's twin of repro.sim.links -----------------


@pytest.mark.parametrize(
    "params, complaint",
    [
        ({"loss": 1.0}, "probability"),
        ({"loss": -0.1}, "probability"),
        ({"duplicate": 1.5}, "probability"),
        ({"delay": -1.0}, "non-negative"),
        ({"jitter": -0.5}, "non-negative"),
        ({"losss": 0.1}, "unknown link param"),
        ("loss=0.1", "mapping"),
    ],
)
def test_validate_link_params_rejects_nonsense(params, complaint) -> None:
    with pytest.raises(ConfigurationError, match=complaint):
        validate_link_params(params)


def test_validate_link_params_normalizes_defaults() -> None:
    out = validate_link_params({"loss": 0.1})
    assert out == {"loss": 0.1, "delay": 0.0, "jitter": 0.0, "duplicate": 0.0, "seed": 0}
    assert set(validate_link_params({})) == set(LINK_PARAM_KEYS)


class _FakeWriter:
    def __init__(self) -> None:
        self.frames: list[bytes] = []
        self.closed = False

    def write(self, frame: bytes) -> None:
        self.frames.append(frame)

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


def _deliveries(seed: int, *, loss: float = 0.3, duplicate: float = 0.0) -> list[bytes]:
    writer = _FakeWriter()
    link = ShapedLink(
        writer, sender=0, receiver=1, loss=loss, duplicate=duplicate, seed=seed
    )
    for index in range(200):
        link.write(b"frame-%03d" % index)
    return writer.frames


def test_shaped_link_loss_is_seed_deterministic() -> None:
    first = _deliveries(41)
    assert first == _deliveries(41)  # same seed: identical drop pattern
    assert first != _deliveries(42)
    assert 0 < len(first) < 200  # some but not all frames survive loss=0.3


def test_shaped_link_rng_is_per_link_not_shared() -> None:
    writer_a, writer_b = _FakeWriter(), _FakeWriter()
    link_a = ShapedLink(writer_a, sender=0, receiver=1, loss=0.3, seed=41)
    link_b = ShapedLink(writer_b, sender=0, receiver=2, loss=0.3, seed=41)
    for index in range(200):
        frame = b"frame-%03d" % index
        link_a.write(frame)
        link_b.write(frame)
    assert writer_a.frames != writer_b.frames  # distinct streams per (s, r)


def test_shaped_link_duplication_writes_extra_copies() -> None:
    writer = _FakeWriter()
    link = ShapedLink(writer, sender=0, receiver=1, duplicate=0.5, seed=7)
    for index in range(100):
        link.write(b"frame-%03d" % index)
    assert link.duplicated > 0
    assert len(writer.frames) == 100 + link.duplicated
    assert link.dropped == 0


def test_shaped_link_delay_defers_the_write_via_the_loop() -> None:
    async def scenario() -> tuple[ShapedLink, _FakeWriter]:
        writer = _FakeWriter()
        link = ShapedLink(
            writer, sender=0, receiver=1, delay=0.5, jitter=0.5,
            time_scale=0.01, seed=3,
        )
        for index in range(10):
            link.write(b"frame-%03d" % index)
        assert writer.frames == []  # nothing lands synchronously
        await asyncio.sleep(0.05)  # > (delay + jitter) × time_scale
        return link, writer

    link, writer = asyncio.run(scenario())
    assert link.delayed == 10
    assert len(writer.frames) == 10


def test_shaped_link_does_not_write_to_a_closing_writer() -> None:
    writer = _FakeWriter()
    link = ShapedLink(writer, sender=0, receiver=1, seed=0)
    writer.closed = True
    link.write(b"frame")
    assert writer.frames == []
    assert link.is_closing()


# -- orchestrator timeouts are backend_params, not constants ----------------


def test_resolve_timeouts_defaults_and_overrides() -> None:
    assert resolve_timeouts({}) == (DEFAULT_READY_TIMEOUT, 20.0)
    assert resolve_timeouts({"ready_timeout": 45, "mesh_deadline": 90}) == (45.0, 90.0)


@pytest.mark.parametrize(
    "params", [{"ready_timeout": 0}, {"ready_timeout": -1}, {"mesh_deadline": 0}]
)
def test_resolve_timeouts_rejects_nonpositive(params) -> None:
    with pytest.raises(ConfigurationError, match="must be positive"):
        resolve_timeouts(params)


# -- one end-to-end campaign (fabric legs only) -----------------------------


def test_campaign_survives_its_own_chaos(tmp_path) -> None:
    """Seed 1's full fabric gauntlet: worker SIGKILL, coordinator crash,
    journal mutilation, cache corruption, resume, SIGSTOP stall — and the
    merged output still matches the serial reference bit for bit."""
    report = run_campaign(
        1, scratch=tmp_path / "scratch", progress_timeout=1.0, kv=False, transport=False
    )
    assert isinstance(report, CampaignReport)
    failed = [invariant for invariant in report.invariants if not invariant.ok]
    assert report.ok, f"invariants failed: {[(i.name, i.detail) for i in failed]}"
    names = {invariant.name for invariant in report.invariants}
    assert {
        "coordinator_crash",
        "merge",  # rows, digests and manifest: repro.verify's one comparison
        "stall_detected",
        "stall_merge",
        "no_orphans",
        "no_temp_leaks",
    } <= names
    assert "kv_linearizable" not in names  # disabled legs draw no checks
    assert "transport_detection" not in names
    # chaos actually happened: the injected stall was observed and recovered
    assert report.stats["stall"]["stalled_workers"] >= 1
    assert report.stats["stall"]["worker_deaths"] >= 1
    # and the report replays: the embedded plan is the seed's plan
    assert report.plan == FaultPlan.from_seed(1).to_dict()
    assert json.dumps(report.to_dict())  # the report is JSON-serializable
