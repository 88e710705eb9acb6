"""Tier-1 coverage of the transport subsystem's pure parts.

Everything here runs without sockets or subprocesses: the event log and the
``load_trace`` reader on a fabricated log directory, the E11 aggregator's edge
cases (odd and even medians, empty cells), the wire framing, the ScenarioSpec
backend round-trip (including canonical-hash preservation for pre-backend
specs), the builder's real-backend requirement table, and a *simulated*
heartbeat run exercising the ``hb_detection`` check end to end.  (The
detection rule itself is judged in ``tests/test_detector_properties.py``.)
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.detectors.detection import median_iqr
from repro.identity import IdentityMultiset, ProcessId
from repro.membership import Membership
from repro.runtime import Engine, scenario
from repro.runtime.builder import ScenarioValidationError
from repro.runtime.spec import ScenarioSpec, asynchronous, crashes_at, synchronous
from repro.transport.__main__ import build_heartbeat_spec
from repro.transport.events import EventLog, load_trace
from repro.transport.framing import (
    MAX_FRAME_BYTES,
    FramingError,
    decode_frames,
    encode_frame,
    read_frame,
)
from repro.transport.validate import aggregate_cells, heatmap_csv, scatter_csv


# ----------------------------------------------------------------------
# EventLog / load_trace
# ----------------------------------------------------------------------
def test_event_log_has_no_scenario_time_before_t0(tmp_path):
    path = tmp_path / "node0.jsonl"
    with EventLog(path, epoch=0.0, time_scale=0.05) as log:
        assert log.log("node_ready", t_wall=0.469522)["t"] is None
        log.t0 = 0.5
        assert log.log("node_start", t_wall=0.6)["t"] == 2.0
    first, second = (json.loads(line) for line in path.read_text().splitlines())
    assert first["t"] is None and first["t_wall"] == 0.469522
    assert second["t"] == 2.0


def test_load_trace_folds_a_log_directory_into_a_run_trace(tmp_path):
    membership = Membership.of(["a", "a", "b"])
    trusted = IdentityMultiset(["a", "a"])
    with EventLog(tmp_path / "node0.jsonl", epoch=0.0, time_scale=0.5) as log:
        log.log("h_trusted", t_wall=0.2, value="written before t0: no scenario time")
        log.t0 = 1.0
        log.log("node_start", t_wall=1.0, program="x")
        log.log("msg_send", t_wall=1.5, kind="PING", copies=3)
        log.log("msg_recv", t_wall=1.6, kind="PING")
        log.log("declared_dead", t_wall=4.0, value="b")
        log.log("h_trusted", t_wall=4.5, value=trusted)
        log.log("decide", t_wall=5.0, value=7)
        log.log("decide", t_wall=5.5, value=8)
    with EventLog(tmp_path / "node2.jsonl", epoch=0.0, t0=1.0, time_scale=0.5) as log:
        log.log("hb_ping_sent", t_wall=1.5, value=1)
    with open(tmp_path / "node2.jsonl", "a", encoding="utf-8") as victim:
        victim.write('{"event": "hb_ping_sent", "t": 2.0, "val')  # SIGKILLed mid-line
    with EventLog(tmp_path / "injector.jsonl", epoch=0.0, t0=1.0, time_scale=0.5) as log:
        log.log("run_start", t_wall=1.0, nodes=3)
        log.log("fault_injected", t_wall=2.51, victim=2, identity="b", action="kill")
        log.log("run_end", t_wall=8.0)

    trace = load_trace(tmp_path, membership)  # node1.jsonl is absent: an empty history

    p0, p1, p2 = membership.processes
    assert trace.crashes == {p2: 3.02}  # the injector's measured t_fail, not the schedule
    assert trace.end_time == 14.0
    assert trace.values_of(p0, "declared_dead") == ((6.0, "b"),)
    (record,) = trace.records_of(p0, "h_trusted")  # the pre-t0 line was skipped
    assert record.value == trusted and isinstance(record.value, IdentityMultiset)
    decision = trace.decision_of(p0)
    assert (decision.value, decision.time) == (7, 8.0)  # the first decide line
    assert trace.values_of(p2, "hb_ping_sent") == ((1.0, 1),)  # torn tail dropped
    assert trace.records_of(p1) == () and p1 == ProcessId(1)
    assert trace.broadcasts_by_kind() == {"PING": 1}
    assert trace.message_copies_sent == 3
    assert trace.deliveries_by_kind() == {"PING": 1}


# ----------------------------------------------------------------------
# median_iqr
# ----------------------------------------------------------------------
def test_median_iqr_empty_sample_is_none():
    assert median_iqr([]) is None


def test_median_iqr_single_value_collapses():
    assert median_iqr([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0, "iqr": 0.0}


def test_median_iqr_odd_count_excludes_middle():
    stats = median_iqr([5.0, 1.0, 3.0, 2.0, 4.0])
    assert stats["median"] == 3.0
    assert stats["q1"] == 1.5  # median of [1, 2]
    assert stats["q3"] == 4.5  # median of [4, 5]
    assert stats["iqr"] == 3.0


def test_median_iqr_even_count_splits_exactly():
    stats = median_iqr([4.0, 1.0, 2.0, 3.0])
    assert stats["median"] == 2.5
    assert stats["q1"] == 1.5
    assert stats["q3"] == 3.5
    assert stats["iqr"] == 2.0


# ----------------------------------------------------------------------
# aggregate_cells / CSV shapes
# ----------------------------------------------------------------------
def _trial(backend, interval, timeout, latency):
    return {"backend": backend, "hb_interval": interval, "hb_timeout": timeout, "latency": latency}


def test_aggregate_cells_keeps_all_missed_cells():
    trials = [
        _trial("real", 1.0, 3.0, 3.1),
        _trial("real", 1.0, 3.0, 2.9),
        _trial("real", 1.0, 6.0, None),
        _trial("real", 1.0, 6.0, None),
    ]
    cells = aggregate_cells(trials)
    assert len(cells) == 2
    detected = next(c for c in cells if c["hb_timeout"] == 3.0)
    missed = next(c for c in cells if c["hb_timeout"] == 6.0)
    assert detected["trials"] == 2 and detected["missed"] == 0
    assert detected["median"] == pytest.approx(3.0)
    # an all-missed cell still appears, with the statistics nulled out
    assert missed == {
        "backend": "real",
        "hb_interval": 1.0,
        "hb_timeout": 6.0,
        "trials": 2,
        "missed": 2,
        "median": None,
        "q1": None,
        "q3": None,
        "iqr": None,
    }


def test_aggregate_cells_mixed_missed_uses_surviving_latencies():
    trials = [
        _trial("sim", 1.0, 3.0, 3.0),
        _trial("sim", 1.0, 3.0, None),
        _trial("sim", 1.0, 3.0, 3.4),
    ]
    (cell,) = aggregate_cells(trials)
    assert cell["trials"] == 3 and cell["missed"] == 1
    assert cell["median"] == pytest.approx(3.2)


def test_heatmap_csv_renders_missed_cells_empty():
    cells = aggregate_cells(
        [
            _trial("real", 1.0, 3.0, 3.0),
            _trial("real", 2.0, 3.0, 3.5),
            _trial("real", 1.0, 6.0, None),
            _trial("real", 2.0, 6.0, 6.2),
        ]
    )
    text = heatmap_csv(cells, time_scale=0.05)
    lines = text.strip().split("\n")
    assert lines[0] == "hb_timeout_ms,50,100"
    assert lines[1] == "150,150.000,175.000"
    assert lines[2] == "300,,310.000"  # the missed cell is an empty field


def test_scatter_csv_has_one_row_per_cell_with_missed_counts():
    cells = aggregate_cells(
        [_trial("sim", 1.0, 3.0, 3.0), _trial("real", 1.0, 3.0, None)]
    )
    text = scatter_csv(cells, time_scale=0.05)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "backend,missed,trials,hb_interval_ms,hb_timeout_ms,"
        "median_detection_ms,iqr_detection_ms"
    )
    assert "real,1,1,50,150,," in lines
    assert "sim,0,1,50,150,150.000,0.000" in lines


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def test_framing_round_trip_and_partial_buffer():
    first = {"kind": "HB_PING", "payload": {"n": 1}}
    second = {"kind": "HB_ACK", "payload": {"n": 2}}
    wire = encode_frame(first) + encode_frame(second)
    buffer = bytearray()
    decoded = []
    # feed the stream one byte at a time: frames appear only when complete
    for offset in range(len(wire)):
        buffer.extend(wire[offset : offset + 1])
        decoded.extend(decode_frames(buffer))
    assert decoded == [first, second]
    assert not buffer  # fully consumed


def test_framing_rejects_oversized_frames():
    header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(FramingError):
        decode_frames(bytearray(header + b"x"))


def _via_buffer(pieces):
    buffer, frames = bytearray(), []
    for piece in pieces:
        buffer += piece
        frames += decode_frames(buffer)
    if buffer:  # the buffer form leaves a torn tail for its caller to judge
        raise FramingError("stream closed mid-frame")
    return frames


def _via_async_reader(pieces):
    async def drain():
        reader = asyncio.StreamReader()
        for piece in pieces:
            reader.feed_data(piece)
        reader.feed_eof()
        frames = []
        while (frame := await read_frame(reader)) is not None:
            frames.append(frame)
        return frames

    return asyncio.run(drain())


@pytest.mark.parametrize("decode", [_via_buffer, _via_async_reader])
def test_every_frame_reader_agrees_at_every_cut(decode):
    """One codec, two drivers: buffer and asyncio reader."""
    messages = [{"type": "result", "n": n, "pad": "x" * n} for n in range(4)]
    frames = [encode_frame(message) for message in messages]
    wire = b"".join(frames)
    boundaries = {sum(len(frame) for frame in frames[:k]) for k in range(len(frames) + 1)}
    for cut in range(len(wire) + 1):
        # delivered in two arbitrary pieces, the stream decodes identically …
        assert decode([wire[:cut], wire[cut:]]) == messages
        if cut in boundaries:
            # … clean EOF between frames just ends it …
            assert decode([wire[:cut]]) == messages[: sorted(boundaries).index(cut)]
        else:
            # … and EOF inside a frame is an error, never a silent short read.
            with pytest.raises(FramingError):
                decode([wire[:cut]])


@pytest.mark.parametrize("decode", [_via_buffer, _via_async_reader])
def test_every_frame_reader_rejects_an_oversized_header(decode):
    header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    # "exceeds", not "mid-frame": the announced size alone is the offence.
    with pytest.raises(FramingError, match="exceeds"):
        decode([header, b"x"])


# ----------------------------------------------------------------------
# spec round-trip and builder validation
# ----------------------------------------------------------------------
def test_sim_spec_to_dict_omits_backend_keys():
    spec = build_heartbeat_spec(backend="sim")
    payload = spec.to_dict()
    assert "backend" not in payload and "backend_params" not in payload
    # …so canonical hashes of pre-backend specs are preserved, and the
    # round-trip still defaults correctly:
    assert ScenarioSpec.from_dict(payload).backend == "sim"


def test_real_spec_round_trips_backend_params():
    spec = build_heartbeat_spec(backend="real", time_scale=0.02, log_dir="/tmp/x")
    payload = spec.to_dict()
    assert payload["backend"] == "real"
    restored = ScenarioSpec.from_dict(payload)
    assert restored.backend == "real"
    assert restored.backend_params == {"time_scale": 0.02, "log_dir": "/tmp/x"}
    assert restored.canonical_hash() == spec.canonical_hash()


def test_unknown_backend_is_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="backend"):
        _real_builder().program("heartbeat").backend("quantum").build()


def _real_builder(n: int = 3):
    return (
        scenario("real-validation")
        .processes(n)
        .unique_ids()
        .timing(asynchronous(min_latency=0.005, max_latency=0.05))
        .crashes(crashes_at({n - 1: 6.0}))
        .backend("real")
        .horizon(15.0)
    )


def test_real_backend_requires_a_program():
    # a consensus workload satisfies the generic "needs a workload" check,
    # so the failure is specifically the real backend's program requirement
    with pytest.raises(ScenarioValidationError, match="message-passing programs"):
        _real_builder(5).detectors("HOmega", "HSigma").consensus("homega_hsigma").build()


def test_real_backend_rejects_consensus():
    with pytest.raises(ScenarioValidationError, match="consensus or KV"):
        (
            _real_builder(5)
            .program("heartbeat")
            .detectors("HOmega", "HSigma")
            .consensus("homega_hsigma")
            .build()
        )


def test_real_backend_rejects_detector_oracles():
    with pytest.raises(ScenarioValidationError, match="omniscient"):
        _real_builder().program("heartbeat").detectors("HOmega").build()


def test_real_backend_rejects_synchronous_timing():
    with pytest.raises(ScenarioValidationError, match="synchronous rounds"):
        (
            scenario("real-hss")
            .processes(3)
            .unique_ids()
            .timing(synchronous())
            .program("heartbeat")
            .backend("real")
            .build()
        )


# ----------------------------------------------------------------------
# the hb_detection check, end to end on the simulator
# ----------------------------------------------------------------------
def test_sim_heartbeat_run_detects_the_victim():
    spec = build_heartbeat_spec(nodes=3, hb_interval=1.0, hb_timeout=3.0, fail_at=6.0)
    record = Engine().run(spec)
    assert record.metrics["hb_detection_ok"] is True
    latency = record.metrics["hb_detection_time"]
    # Snippet 1 §5: detection latency lands within one interval of the timeout
    assert 3.0 - 1.0 <= latency <= 3.0 + 1.0


def test_sim_heartbeat_run_is_deterministic():
    spec = build_heartbeat_spec(seed=7)
    first = Engine().run(spec)
    second = Engine().run(spec)
    assert first.digest == second.digest
    assert first.metrics["hb_detection_time"] == second.metrics["hb_detection_time"]
