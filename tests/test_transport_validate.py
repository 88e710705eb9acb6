"""Tier-1 coverage of the transport subsystem's pure parts.

Everything here runs without sockets or subprocesses: the event log, its
reader and ``load_trace`` on a fabricated log directory, a real node runtime
running a program through ``ProcessContext`` with fake peer writers, running a
task that sleeps, waits and decides on the simulator's trampoline, and
retiring a decided KV slot's handlers as the simulator's runtime does, the E11
aggregator's edge
cases (odd and even medians, empty cells), the wire framing, the ScenarioSpec
backend round-trip (including canonical-hash preservation for pre-backend
specs), the builder's real-backend requirement table, a *simulated*
heartbeat run exercising the ``hb_detection`` check end to end, ``ShapedLink``
applying each link model against a fake writer and loop, the
orchestrator's timeout parameters, the order of the fault timeline, and the
node reading back the spec the orchestrator hands it.  (The detection rule itself is judged in
``tests/test_detector_properties.py``.)
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from pathlib import Path

import pytest

from repro.context import ProcessContext, ProcessProgram
from repro.detectors.detection import median_iqr
from repro.errors import ConfigurationError
from repro.events import EventLog, read_events
from repro.identity import IdentityMultiset, ProcessId
from repro.membership import Membership
from repro.runtime import Engine, scenario
from repro.runtime.builder import ScenarioValidationError
from repro.runtime.spec import (
    RealBackend,
    ScenarioSpec,
    asynchronous,
    crashes_at,
    lossy,
    synchronous,
)
from repro.sim.links import (
    AsymmetricLinks,
    ComposedLinks,
    DuplicatingLinks,
    JitterLinks,
    LossyLinks,
    PartitionedLinks,
)
from repro.sim.message import Message
from repro.sim.process import ProcessRuntime
from repro.transport.__main__ import build_heartbeat_spec
from repro.transport.context import RealNodeRuntime, TransportError
from repro.transport.framing import (
    MAX_FRAME_BYTES,
    FramingError,
    decode_frames,
    encode_frame,
    read_frame,
)
from repro.transport.faults import injection_timeline
from repro.transport.node import ShapedLink, _parser as _node_parser
from repro.transport.orchestrator import _node_args, load_trace
from repro.transport.validate import aggregate_cells, heatmap_csv, scatter_csv
from repro.workloads.kv import replica


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


def test_read_events_skips_a_bad_line_and_keeps_reading(tmp_path):
    """A stray line mid-file costs that line only; a torn tail is dropped."""
    path = tmp_path / "log.jsonl"
    with EventLog(path, epoch=0.0) as log:
        log.log("first", t_wall=1.0, value=IdentityMultiset(["a", "a"]))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("this is not even JSON\n")
        handle.write("[1, 2]\n")  # JSON, but not an object
    with EventLog(path, epoch=0.0) as log:
        log.log("second", t_wall=2.0, value=7)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "third", "t_wall": 3.0, "val')  # SIGKILLed mid-line
    first, second = read_events(path)
    assert (first["event"], first["value"]) == ("first", IdentityMultiset(["a", "a"]))
    assert (second["event"], second["value"]) == ("second", 7)
    assert list(read_events(tmp_path / "absent.jsonl")) == []


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
    assert trace.records_of(p0, "declared_dead") == [(6.0, "b")]
    ((_, value),) = trace.records_of(p0, "h_trusted")  # the pre-t0 line was skipped
    assert value == trusted and isinstance(value, IdentityMultiset)
    decision = trace.decisions[p0]
    assert (decision.value, decision.time) == (7, 8.0)  # the first decide line
    assert trace.records_of(p2, "hb_ping_sent") == [(1.0, 1)]  # torn tail dropped
    assert trace.processes_with_records() == {p0, p2} and p1 == ProcessId(1)
    assert trace.broadcasts_by_kind() == {"PING": 1}
    assert trace.message_copies_sent == 3
    assert trace.delivered_by_kind == {"PING": 1}


class _Hello(ProcessProgram):
    def setup(self, ctx):
        self.now = ctx.now
        ctx.on("HELLO", lambda message: ctx.record("heard", message["n"]))
        ctx.broadcast("HELLO", n=1)
        ctx.decide(7)


def test_the_real_runtime_runs_a_program_through_the_one_context(tmp_path):
    """No sockets: two fake peer writers stand in for the mesh."""
    peers, program = {1: _FakeWriter(), 2: _FakeWriter()}, _Hello()
    epoch = time.monotonic() - 10.0

    async def run():
        earliest = (time.monotonic() - epoch - 2.0) / 0.5
        runtime.start(program)
        latest = (time.monotonic() - epoch - 2.0) / 0.5
        await asyncio.sleep(0)  # the self-delivery is the loop's next callback
        runtime.stop()
        return earliest, latest

    with EventLog(tmp_path / "node0.jsonl", epoch=epoch, t0=2.0, time_scale=0.5) as log:
        runtime = RealNodeRuntime(index=0, identity="a", log=log, time_scale=0.5)
        for index, writer in peers.items():
            runtime.add_peer(index, writer)
        earliest, latest = asyncio.run(run())

    assert type(runtime.context) is ProcessContext
    assert 16.0 <= earliest <= program.now <= latest  # (10 s - t0) / time_scale on
    for writer in peers.values():
        (frame,) = decode_frames(bytearray(b"".join(writer.frames)))
        assert frame == {"kind": "HELLO", "payload": {"n": 1}, "sender": 0}
    lines = {entry["event"]: entry for entry in read_events(log.path)}
    assert lines["msg_send"]["kind"] == lines["msg_recv"]["kind"] == "HELLO"
    assert lines["msg_send"]["copies"] == len(peers) + 1
    assert (lines["heard"]["value"], lines["decide"]["value"]) == (1, 7)

    trace = load_trace(tmp_path, Membership.of(["a", "b", "c"]))
    p0 = ProcessId(0)
    assert trace.records_of(p0, "heard") == [(lines["heard"]["t"], 1)]
    decision = trace.decisions[p0]
    assert (decision.value, decision.time) == (7, lines["decide"]["t"])
    assert trace.broadcasts_by_kind() == trace.delivered_by_kind == {"HELLO": 1}
    assert trace.message_copies_sent == 3


def test_the_real_runtime_retires_a_decided_slot_as_the_simulator_does(tmp_path):
    """A KV slot scope over the real runtime: its handlers leave with its decision."""
    assert RealNodeRuntime.remove_handlers is ProcessRuntime.remove_handlers
    heard, committed = [], []
    with EventLog(tmp_path / "node0.jsonl", epoch=0.0, t0=0.0, time_scale=1.0) as log:
        runtime = RealNodeRuntime(index=0, identity="a", log=log, time_scale=1.0)
        runtime.start(_Hears(heard))
        slot = replica._SlotContext(runtime.context, 3, range(1), lambda *c: committed.append(c))
        slot.on("PH1", heard.append)
        runtime.deliver(Message("PH1#s3", {"round": 1}))
        slot.decide("v")
        runtime.deliver(Message("PH1#s3", {"round": 2}))  # a late copy
        runtime.deliver(Message("HELLO", {"round": 3}))
    assert committed == [(3, "v")]
    assert [message["round"] for message in heard] == [1, 3]
    received = [entry["kind"] for entry in read_events(log.path) if entry["event"] == "msg_recv"]
    assert received == ["PH1#s3", "PH1#s3", "HELLO"]


class _SleepsWaitsDecides(ProcessProgram):
    """Sleeps one unit, waits until a PING has arrived, decides, sleeps again."""

    def setup(self, ctx):
        heard = []
        ctx.on("PING", heard.append)

        def task():
            yield ctx.sleep(1.0)
            ctx.record("slept", ctx.now)
            yield ctx.wait_until(lambda: heard)
            ctx.decide(heard[0]["n"])
            yield ctx.sleep(100.0)
            ctx.record("overslept", ctx.now)

        ctx.spawn(task)


def test_a_real_task_sleeps_waits_and_decides_on_the_one_trampoline(tmp_path):
    """No sockets: a task on the real runtime sleeps scaled wall time, wakes
    when a peer's frame satisfies its ``wait_until``, decides, and ``stop``
    cancels its next sleep, so no record line follows."""
    scale = 0.01  # wall seconds per scenario time unit

    def events():
        return [entry["event"] for entry in read_events(log.path)]

    async def until(logged):
        while logged not in events():
            await asyncio.sleep(scale / 10)

    async def run():
        runtime.start(_SleepsWaitsDecides())
        await until("slept")
        assert events() == ["slept"]  # the wait holds until a PING arrives
        runtime.deliver_wire({"kind": "PING", "payload": {"n": 5}, "sender": 1})
        await until("decide")
        (task,) = runtime._tasks  # asleep again, for 100 units
        pending = task.pending_event
        runtime.stop()
        assert pending.cancelled() and runtime._tasks == []

    with EventLog(tmp_path / "node0.jsonl", epoch=time.monotonic(), t0=0.0, time_scale=scale) as log:
        runtime = RealNodeRuntime(index=0, identity="a", log=log, time_scale=scale)
        runtime.add_peer(1, _FakeWriter())
        asyncio.run(asyncio.wait_for(run(), timeout=10.0))

    lines = list(read_events(log.path))
    assert [entry["event"] for entry in lines] == ["slept", "msg_recv", "decide"]
    assert lines[0]["value"] >= 1.0 and lines[2]["value"] == 5


def test_a_real_task_cannot_wait_for_a_synchronous_step(tmp_path):
    """The real backend has no synchronous rounds: the resumption raises."""
    errors = []

    class _Synchronous(ProcessProgram):
        def setup(self, ctx):
            def task():
                yield ctx.next_synchronous_step()

            ctx.spawn(task)

    async def run():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context["exception"])
        )
        runtime.start(_Synchronous())
        await asyncio.sleep(0.01)

    with EventLog(tmp_path / "node0.jsonl", epoch=time.monotonic(), t0=0.0) as log:
        runtime = RealNodeRuntime(index=0, identity="a", log=log, time_scale=1.0)
        asyncio.run(run())
    assert [type(error) for error in errors] == [TransportError]


class _Fails(ProcessProgram):
    """One task raises after a unit of sleep; another would record much later."""

    def setup(self, ctx):
        def failing():
            yield ctx.sleep(1.0)
            raise RuntimeError("boom")

        def later():
            yield ctx.sleep(50.0)
            ctx.record("late", ctx.now)

        ctx.spawn(failing)
        ctx.spawn(later)


def test_a_real_task_error_reaches_the_log_and_stops_the_node(tmp_path):
    """No sockets: with the handler a node installs on its loop, a task's error
    is a ``task_error`` line that ``load_trace`` reads, and the program stops."""
    scale = 0.01

    async def run():
        asyncio.get_running_loop().set_exception_handler(runtime.fail)
        runtime.start(_Fails())
        while not runtime._crashed:
            await asyncio.sleep(scale / 10)

    with EventLog(tmp_path / "node0.jsonl", epoch=time.monotonic(), t0=0.0, time_scale=scale) as log:
        runtime = RealNodeRuntime(index=0, identity="a", log=log, time_scale=scale)
        asyncio.run(asyncio.wait_for(run(), timeout=10.0))
    assert runtime._tasks == []
    (line,) = read_events(log.path)
    assert line["event"] == "task_error" and "RuntimeError('boom')" in line["value"]
    trace = load_trace(tmp_path, Membership.of(["a"]))
    assert trace.records_of(ProcessId(0), "task_error") == [(line["t"], line["value"])]


class _Hears(ProcessProgram):
    def __init__(self, heard):
        self.heard = heard

    def setup(self, ctx):
        ctx.on("HELLO", self.heard.append)


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


def test_e11_lossy_cell_is_one_spec_on_both_backends():
    """The two halves of E11's lossy cell differ only in where they run."""

    def without_backend(backend: str) -> dict:
        payload = build_heartbeat_spec(loss=0.15, backend=backend).to_dict()
        payload.pop("backend", None)
        payload.pop("backend_params", None)
        return payload

    assert without_backend("real") == without_backend("sim")
    assert without_backend("sim")["network"] == lossy(0.15).to_dict()


@pytest.mark.parametrize("backend", ["sim", "real"])
def test_one_link_envelope_for_both_backends(backend):
    """Never-healing loss voids the HAS guarantees on either backend, so both
    reject it unless the spec acknowledges it with ``.adversarial()``."""
    build = (
        scenario("lossy-heartbeat")
        .processes(3)
        .unique_ids()
        .timing(asynchronous(min_latency=0.005, max_latency=0.05))
        .program("heartbeat")
        .network(lossy(0.3))
        .horizon(15.0)
        .backend(backend)
    )
    with pytest.raises(ScenarioValidationError, match="HAS guarantees assume reliable links"):
        build.build()
    spec = build.adversarial().build()
    assert spec.backend == backend and spec.network == lossy(0.3)


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


# ----------------------------------------------------------------------
# ShapedLink: the spec's link model on a real TCP link
# ----------------------------------------------------------------------
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


class _FakeLoopClock:
    """The link's clock (``now``, scenario time) and its loop (``call_later``
    records the deferred write instead of waiting; ``fire`` runs them)."""

    def __init__(self) -> None:
        self.now = 0.0
        self.pending: list[tuple[float, object, tuple]] = []

    def call_later(self, delay, callback, *args) -> None:
        self.pending.append((delay, callback, args))

    def fire(self) -> None:
        pending, self.pending = self.pending, []
        for _delay, callback, args in pending:
            callback(*args)


_LINK_SEED = 7
_LINK_TIME_SCALE = 0.01


def _shaped_link(writer, model, *, receiver: int = 1, seed: int = _LINK_SEED, clock=None):
    return ShapedLink(
        writer, model, sender=0, receiver=receiver, clock=clock or _FakeLoopClock(),
        time_scale=_LINK_TIME_SCALE, seed=seed,
    )


def _deliveries(seed: int, *, receiver: int = 1) -> list[bytes]:
    writer = _FakeWriter()
    link = _shaped_link(writer, LossyLinks(loss=0.3), receiver=receiver, seed=seed)
    for index in range(200):
        link.write(b"frame-%03d" % index)
    return writer.frames


def test_shaped_link_loss_is_seed_deterministic() -> None:
    first = _deliveries(41)
    assert first == _deliveries(41)  # same seed: identical drop pattern
    assert first != _deliveries(42)
    assert 0 < len(first) < 200  # some but not all frames survive loss=0.3


def test_shaped_link_rng_is_per_link_not_shared() -> None:
    # distinct streams per (sender, receiver) under one seed
    assert _deliveries(41, receiver=1) != _deliveries(41, receiver=2)


def test_shaped_link_duplication_writes_extra_copies() -> None:
    writer = _FakeWriter()
    link = _shaped_link(writer, DuplicatingLinks(probability=0.5, spread=0.0))
    frames = [b"frame-%03d" % index for index in range(100)]
    for frame in frames:
        link.write(frame)
    assert set(writer.frames) == set(frames)  # nothing is dropped…
    assert 100 < len(writer.frames) < 200  # …and about half are written twice


def test_shaped_link_delay_defers_the_write_via_the_loop() -> None:
    async def scenario() -> _FakeWriter:
        writer = _FakeWriter()
        link = _shaped_link(writer, JitterLinks(max_jitter=0.5))
        for index in range(10):
            link.write(b"frame-%03d" % index)
        assert writer.frames == []  # nothing lands synchronously
        await asyncio.sleep(0.05)  # > max_jitter × time_scale
        return writer

    assert len(asyncio.run(scenario()).frames) == 10


def test_shaped_link_does_not_write_to_a_closing_writer(monkeypatch) -> None:
    loop = _FakeLoopClock()
    monkeypatch.setattr(asyncio, "get_running_loop", lambda: loop)
    writer = _FakeWriter()
    link = _shaped_link(writer, DuplicatingLinks(probability=1.0, spread=1.0), clock=loop)
    link.write(b"frame")
    assert writer.frames == [b"frame"] and len(loop.pending) == 1
    writer.closed = True
    loop.fire()  # the delayed copy finds the writer closing
    link.write(b"later")
    assert writer.frames == [b"frame"]
    assert link.is_closing()


@pytest.mark.parametrize(
    "model",
    [
        pytest.param(LossyLinks(loss=0.3), id="lossy"),
        pytest.param(DuplicatingLinks(probability=0.5, spread=2.0), id="duplicating"),
        pytest.param(JitterLinks(max_jitter=1.5), id="jitter"),
        pytest.param(AsymmetricLinks(extra={"0->1": 2.0}, default=0.5), id="asymmetric"),
        pytest.param(
            PartitionedLinks.from_windows([{"start": 10.0, "end": 20.0, "groups": [[0], [1, 2]]}]),
            id="partitioned",
        ),
        pytest.param(
            ComposedLinks(
                (
                    LossyLinks(loss=0.2, end=25.0),
                    DuplicatingLinks(probability=0.3, spread=1.0),
                    JitterLinks(max_jitter=0.5, start=15.0),
                )
            ),
            id="composed",
        ),
    ],
)
def test_shaped_link_writes_what_its_link_model_delivers(model, monkeypatch) -> None:
    """Each frame is one copy sent at ``now``: the link writes it once per time
    ``model.deliveries`` returns under the link's own seeded stream, at once when
    the model adds no delay and ``(t − now) × time_scale`` later otherwise."""
    loop = _FakeLoopClock()
    monkeypatch.setattr(asyncio, "get_running_loop", lambda: loop)
    sent = [(index * 0.5, b"frame-%03d" % index) for index in range(60)]

    for receiver in (1, 2):
        rng = random.Random(f"shaped-link:{_LINK_SEED}:0:{receiver}")
        want = [
            ((when - now) * _LINK_TIME_SCALE, frame)
            for now, frame in sent
            for when in model.deliveries(ProcessId(0), ProcessId(receiver), now, (now,), rng)
        ]
        writer = _FakeWriter()
        link = _shaped_link(writer, model, receiver=receiver, clock=loop)
        for now, frame in sent:
            loop.now = now
            link.write(frame)
        # nothing the model delays lands synchronously…
        assert writer.frames == [frame for delay, frame in want if delay == 0.0]
        # …it waits on the loop for exactly the model's delay, scaled to wall time
        assert [(delay, args[0]) for delay, _, args in loop.pending] == [
            (delay, frame) for delay, frame in want if delay > 0.0
        ]
        loop.fire()
        assert sorted(writer.frames) == sorted(frame for _, frame in want)


# ----------------------------------------------------------------------
# orchestrator timeouts are backend_params, not constants
# ----------------------------------------------------------------------
def test_the_real_backend_timeouts_default_and_override() -> None:
    assert (RealBackend().ready_timeout, RealBackend().mesh_deadline) == (20.0, 20.0)
    settings = RealBackend(ready_timeout=45, mesh_deadline=90)
    assert (settings.ready_timeout, settings.mesh_deadline) == (45, 90)


@pytest.mark.parametrize(
    "params",
    [{"ready_timeout": 0}, {"ready_timeout": -1}, {"mesh_deadline": 0}, {"time_scale": 0.0},
     {"settle": -0.1}, {"resume_after": 0}],
)
def test_a_real_spec_with_a_nonpositive_tunable_is_refused_where_it_is_made(params) -> None:
    payload = build_heartbeat_spec(backend="real").to_dict()
    payload["backend_params"].update(params)
    with pytest.raises(ConfigurationError, match="must be positive"):
        ScenarioSpec.from_dict(payload)


def test_a_real_spec_refuses_resume_after_without_a_suspend() -> None:
    """A SIGKILLed node cannot resume, so ``resume_after`` is not silently dropped."""
    spec = build_heartbeat_spec(backend="real", fault_action="suspend", resume_after=2.0)
    payload = spec.to_dict()
    assert ScenarioSpec.from_dict(payload) == spec
    del payload["backend_params"]["fault_action"]  # the default: kill
    with pytest.raises(ConfigurationError, match="resume_after needs fault_action='suspend'"):
        ScenarioSpec.from_dict(payload)


# ----------------------------------------------------------------------
# the fault timeline and the node's command line, both read off the spec
# ----------------------------------------------------------------------
def _real_spec(crashes: dict, **backend_params) -> ScenarioSpec:
    return (
        scenario("timeline")
        .processes(4)
        .unique_ids()
        .timing(asynchronous(min_latency=0.005, max_latency=0.05))
        .crashes(crashes_at(crashes))
        .program("heartbeat")
        .horizon(20.0)
        .backend("real", **backend_params)
        .build()
    )


def _timeline(spec: ScenarioSpec) -> list[tuple[float, str, int]]:
    return injection_timeline(spec, spec.membership.build())


def test_victims_at_one_time_are_injected_in_index_order() -> None:
    assert _timeline(_real_spec({3: 6.0, 1: 6.0, 2: 4.0})) == [
        (4.0, "fault", 2), (6.0, "fault", 1), (6.0, "fault", 3),
    ]


def test_a_kill_is_never_resumed() -> None:
    spec = _real_spec({1: 2.0, 2: 5.0}, fault_action="kill")
    assert [kind for _, kind, _ in _timeline(spec)] == ["fault", "fault"]


def test_each_suspend_is_followed_by_its_resume() -> None:
    spec = _real_spec({1: 2.0, 2: 2.0}, fault_action="suspend", resume_after=3.0)
    assert _timeline(spec) == [
        (2.0, "fault", 1), (2.0, "fault", 2), (5.0, "resume", 1), (5.0, "resume", 2),
    ]


def test_a_resume_that_ties_with_a_fault_comes_first() -> None:
    """Process 1's resume and process 2's fault are both due at t=5: the
    resume, scheduled from the earlier fault, keeps its place ahead."""
    spec = _real_spec({2: 5.0, 1: 2.0, 3: 9.0}, fault_action="suspend", resume_after=3.0)
    assert _timeline(spec) == [
        (2.0, "fault", 1), (5.0, "resume", 1), (5.0, "fault", 2),
        (8.0, "resume", 2), (9.0, "fault", 3), (12.0, "resume", 3),
    ]


def test_the_node_reads_the_spec_the_orchestrator_hands_it(tmp_path) -> None:
    spec = build_heartbeat_spec(backend="real", loss=0.1, fault_action="suspend")
    argv = _node_args(spec, 1, [7001, 7002, 7003], "127.0.0.1:7000", 12.5, tmp_path)
    args = _node_parser().parse_args(argv)
    assert ScenarioSpec.from_json(args.spec) == spec
    assert (args.index, args.port, args.control, args.epoch) == (1, 7002, "127.0.0.1:7000", 12.5)
    assert json.loads(args.peers) == [[0, "127.0.0.1", 7001], [2, "127.0.0.1", 7003]]
    assert args.log == str(tmp_path / "node1.jsonl")


def test_the_node_refuses_a_flag_the_spec_carries(capsys) -> None:
    spec = build_heartbeat_spec(backend="real")
    argv = _node_args(spec, 0, [7001], "127.0.0.1:7000", 0.0, Path("logs"))
    with pytest.raises(SystemExit):
        _node_parser().parse_args([*argv, "--program", "heartbeat"])
    assert "unrecognized arguments: --program" in capsys.readouterr().err
