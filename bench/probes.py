"""Probes: direct timed calls into one layer's public functions.

Fixed synthetic input and exact op counts, so a probe's number moves only
when that layer's code (or the box) does.  Each value is the median of three
repeats, in raw host time; the harness scales it like every other time.
"""

from __future__ import annotations

import json
import random
import statistics
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.fabric.work import ItemResult
from repro.runtime import RunCache, RunRecord, WorkerPool, scenario
from repro.sim.events import EventQueue
from repro.sim.links import ComposedLinks, JitterLinks, LossyLinks
from repro.sim.timing import AsynchronousTiming
from repro.transport.framing import decode_frames, encode_frame

__all__ = ["run_probes"]


def _noop() -> None:
    pass


def _identity(item):
    return item


def _median_of_three(fn: Callable[[], float]) -> float:
    return statistics.median(fn() for _ in range(3))


def _per_op(ops: int, body: Callable[[], None]) -> float:
    started = perf_counter()
    body()
    return (perf_counter() - started) / ops


def run_probes(workdir: Path, *, smoke: bool) -> dict[str, float]:
    """``metric -> value`` (ns/us/s as the metric's name says), unscaled."""
    scale = 20 if smoke else 1
    spec = (
        scenario("probe")
        .processes(7)
        .distinct_ids(3)
        .detectors("HOmega", "HSigma", stabilization=20.0)
        .consensus("homega_majority")
        .horizon(600.0)
        .seed(1)
        .build()
    )
    processes = list(spec.membership.build().processes)
    record = RunRecord(
        scenario=spec.name,
        seed=spec.seed,
        config=spec.to_dict(),
        metrics={"decided": True, "safe": True, "decision_time": 31.5, "rounds": 2,
                 "broadcasts": 84, "message_copies": 588},
        digest="0123456789abcdef",
    )
    values: dict[str, float] = {}

    events = 20_000 // scale

    def schedule_pop() -> None:
        queue = EventQueue()
        for index in range(events):
            queue.schedule((index * 7919 % 10007) * 0.001, _noop)
        while queue.pop_next() is not None:
            pass

    values["sim.events.schedule_pop_ns"] = 1e9 * _median_of_three(
        lambda: _per_op(events, schedule_pop)
    )

    timing = AsynchronousTiming(min_latency=0.01, max_latency=0.2)
    receivers = processes * 20  # 140 copies per broadcast
    broadcasts = 400 // scale

    def draw() -> None:
        rng = random.Random(7)
        for _ in range(broadcasts):
            timing.delivery_times(processes[0], receivers, 1.0, rng)

    values["sim.timing.draw_ns_per_copy"] = 1e9 * _median_of_three(
        lambda: _per_op(broadcasts * len(receivers), draw)
    )

    links = ComposedLinks((LossyLinks(loss=0.1), JitterLinks(max_jitter=0.5)))
    copies = 20_000 // scale

    def compose() -> None:
        rng = random.Random(7)
        for _ in range(copies):
            links.deliveries(processes[0], processes[1], 1.0, (1.5,), rng)

    values["sim.links.compose_ns_per_copy"] = 1e9 * _median_of_three(
        lambda: _per_op(copies, compose)
    )

    hashes = 400 // scale

    def hash_spec() -> None:
        for _ in range(hashes):
            spec.canonical_hash()

    values["runtime.spec.hash_us"] = 1e6 * _median_of_three(lambda: _per_op(hashes, hash_spec))

    def dump_record() -> None:
        for _ in range(hashes):
            json.dumps(record.to_dict(), sort_keys=True, default=str)

    values["runtime.engine.record_json_us"] = 1e6 * _median_of_three(
        lambda: _per_op(hashes, dump_record)
    )

    cache = RunCache(workdir / "probe-cache")
    entries = 200 // scale
    payload = record.to_dict()
    values["runtime.cache.put_us"] = 1e6 * _median_of_three(
        lambda: _per_op(entries, lambda: [cache.put(f"rec-{i:04d}", payload) for i in range(entries)])
    )
    values["runtime.cache.get_us"] = 1e6 * _median_of_three(
        lambda: _per_op(entries, lambda: [cache.get(f"rec-{i:04d}") for i in range(entries)])
    )

    message = {
        "type": "result",
        "result": ItemResult(
            index=17, key="row-" + "ab" * 32, row=record.row(), digests=(2**63 + 12345,)
        ).to_dict(),
    }
    frames = 2_000 // scale

    def codec() -> None:
        for _ in range(frames):
            decode_frames(bytearray(encode_frame(message)))

    values["transport.framing.codec_us_per_msg"] = 1e6 * _median_of_three(
        lambda: _per_op(frames, codec)
    )

    # One spawn (interpreter + library import in both workers), then a no-op
    # map on the warm pool: what the executor layer costs with zero compute.
    items = 2_000 // scale
    with WorkerPool(2) as pool:
        started = perf_counter()
        pool.map(_identity, range(8))
        values["runtime.executors.spawn_s"] = perf_counter() - started
        values["runtime.executors.roundtrip_us_per_item"] = 1e6 * _median_of_three(
            lambda: _per_op(items, lambda: pool.map(_identity, range(items)))
        )
    return values
