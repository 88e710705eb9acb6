"""One node of a real-backend run: ``python -m repro.transport.node``.

The orchestrator spawns N of these as OS subprocesses.  Each node

1. listens on its TCP port and dials every peer (retrying until the full
   mesh is up — peers come up in arbitrary order);
2. reports ``node_ready`` to the orchestrator's control socket and waits for
   the ``start`` frame carrying ``t0``, the common scenario origin on the
   shared monotonic time base (epoch-relative seconds);
3. builds its :class:`ProcessProgram` from the registry — the *same* entry a
   sim run would build — and runs it on the simulator's one trampoline
   (:class:`~repro.transport.context.RealNodeRuntime`, whose resumptions are
   event-loop timers), writing to each peer through the spec's own link
   model when it is not the reliable default (:class:`ShapedLink`).  All of
   it comes from the spec (``--spec``, validated where it is read): the
   identity from its membership, the program and its parameters, the seed,
   the horizon, ``time_scale`` and the dial budget from its
   ``backend_params``, and the links from its ``network`` section;
4. appends every observable event (``msg_send``/``msg_recv``, ``ctx.record``
   keys such as ``hb_ping_sent``/``hb_ack_recv``/``declared_dead``,
   ``decide``) to its JSONL log, each line stamped with both epoch-relative
   wall seconds and scenario time units;
5. exits on its own once the horizon elapses (or on a ``stop`` control
   frame) — unless the fault injector gets it first, which is the point.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time

from ..events import EventLog
from ..identity import ProcessId
from ..retry import RetryPolicy
from ..runtime.registry import PROGRAMS
from ..runtime.spec import RealBackend, ScenarioSpec
from ..sim.links import LinkModel
from .context import RealNodeRuntime
from .framing import FramingError, encode_frame, read_frame

__all__ = ["main", "ShapedLink"]

#: Backoff schedule for outbound dials: peers come up in arbitrary order, so
#: early dials *expect* connection-refused.  Decorrelated jitter (instead of
#: the old fixed 50 ms poll) keeps N nodes from hammering a slow peer's
#: accept queue in lockstep; the mesh deadline bounds the whole loop.
DIAL_RETRY = RetryPolicy(base=0.02, cap=0.25, max_attempts=1_000_000)


class ShapedLink:
    """One outbound peer link under the spec's :class:`~repro.sim.links.LinkModel`.

    A real run applies the same link model a simulated one does: each frame
    is one copy sent at the node's scenario time ``now``, the model maps the
    candidate delivery times ``(now,)`` to the times it keeps — none when it
    drops the copy, several when it duplicates it, later ones when it delays
    it — and the frame is written once per kept time, ``(t − now) ×
    time_scale`` wall seconds later.  Exposes the two writer methods the
    runtime uses (``write``/``is_closing``), so shaping is invisible to
    :class:`~repro.transport.context.RealNodeRuntime`.

    Draws come from a private RNG seeded ``(seed, sender, receiver)`` — the
    same seed replays the same drop/duplicate pattern per link, which is
    what makes a lossy real run replayable.
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        model: LinkModel,
        *,
        sender: int,
        receiver: int,
        clock,
        time_scale: float,
        seed: int,
    ) -> None:
        self._writer = writer
        self._model = model
        self._sender = ProcessId(sender)
        self._receiver = ProcessId(receiver)
        self._clock = clock
        self._time_scale = time_scale
        self._rng = random.Random(f"shaped-link:{seed}:{sender}:{receiver}")

    def write(self, frame: bytes) -> None:
        now = self._clock.now
        for when in self._model.deliveries(self._sender, self._receiver, now, (now,), self._rng):
            if when > now:
                asyncio.get_running_loop().call_later(
                    (when - now) * self._time_scale, self._write_now, frame
                )
            else:
                self._write_now(frame)

    def _write_now(self, frame: bytes) -> None:
        if not self._writer.is_closing():
            self._writer.write(frame)

    def is_closing(self) -> bool:
        return self._writer.is_closing()

    def close(self) -> None:
        self._writer.close()


async def _serve_peer(runtime: RealNodeRuntime, reader: asyncio.StreamReader, writer) -> None:
    """Feed every frame of one inbound connection to the runtime."""
    try:
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return
            runtime.deliver_wire(frame)
    except (FramingError, ConnectionError):
        return
    finally:
        writer.close()


async def _dial(host: str, port: int, deadline: float, rng: random.Random):
    """Dial one peer, backing off with jitter until it is up (or the deadline)."""
    delays = DIAL_RETRY.delays(rng)
    while True:
        try:
            return await asyncio.open_connection(host, port)
        except OSError:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise
            delay = next(delays, DIAL_RETRY.cap)
            await asyncio.sleep(min(delay, remaining))


async def _run_node(args: argparse.Namespace) -> int:
    spec = ScenarioSpec.from_json(args.spec)
    membership = spec.membership.build()
    identity = membership.identity_of(membership.processes[args.index])
    settings = RealBackend(**spec.backend_params)
    time_scale = settings.time_scale
    peers = json.loads(args.peers)
    model = None if spec.network.is_reliable else spec.network.build()

    log = EventLog(
        args.log,
        epoch=args.epoch,
        time_scale=time_scale,
        node={"index": args.index, "identity": identity},
    )
    runtime = RealNodeRuntime(
        index=args.index, identity=identity, log=log, time_scale=time_scale, seed=spec.seed
    )

    server = await asyncio.start_server(
        lambda r, w: _serve_peer(runtime, r, w), args.host, args.port
    )
    dial_rng = random.Random(f"dial:{spec.seed}:{args.index}")
    deadline = time.monotonic() + settings.mesh_deadline
    for index, host, port in peers:
        _reader, writer = await _dial(host, port, deadline, dial_rng)
        if model is not None:
            writer = ShapedLink(
                writer,
                model,
                sender=args.index,
                receiver=int(index),
                clock=runtime.clock,
                time_scale=time_scale,
                seed=spec.seed,
            )
        runtime.add_peer(int(index), writer)
    log.log("node_ready", peers=len(peers), shaped=model is not None)

    control_host, _, control_port = args.control.rpartition(":")
    control_reader, control_writer = await _dial(
        control_host, int(control_port), deadline, dial_rng
    )
    control_writer.write(encode_frame({"event": "node_ready", "index": args.index}))
    await control_writer.drain()

    start = await read_frame(control_reader)
    if not start or start.get("event") != "start":
        log.log("node_error", error=f"expected start frame, got {start!r}")
        return 1
    t0 = float(start["t0"])
    log.t0 = t0

    # Align the program start on the common origin (t0 is in the future by
    # the orchestrator's settle margin).
    await asyncio.sleep(max(0.0, (args.epoch + t0) - time.monotonic()))
    log.log("node_start", program=spec.program)

    async def _until_stop_frame() -> None:
        frame = await read_frame(control_reader)
        if frame is not None and frame.get("event") == "stop":
            return
        await asyncio.sleep(settings.mesh_deadline + spec.horizon * time_scale)

    stopper = asyncio.ensure_future(_until_stop_frame())

    def _task_error(loop: asyncio.AbstractEventLoop, context: dict) -> None:
        runtime.fail(loop, context)
        stopper.cancel()  # a program error ends the node now, not at the horizon

    asyncio.get_running_loop().set_exception_handler(_task_error)
    runtime.start(PROGRAMS.resolve(spec.program).build(**spec.program_params))
    horizon_wall = (args.epoch + t0 + spec.horizon * time_scale) - time.monotonic()
    await asyncio.wait({stopper}, timeout=max(0.0, horizon_wall))
    stopper.cancel()

    runtime.stop()
    log.log("node_stop")
    server.close()
    control_writer.close()
    log.close()
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.transport.node",
        description="One node process of a real-backend run (spawned by the orchestrator).",
    )
    parser.add_argument(
        "--spec", required=True, help="the run's ScenarioSpec as JSON (ScenarioSpec.to_json())"
    )
    parser.add_argument("--index", type=int, required=True, help="this node's process index")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True, help="TCP port to listen on")
    parser.add_argument(
        "--peers", required=True, help='JSON list of [index, host, port] to dial'
    )
    parser.add_argument(
        "--control", required=True, help="host:port of the orchestrator's control socket"
    )
    parser.add_argument(
        "--epoch", type=float, required=True, help="the run's monotonic-clock epoch"
    )
    parser.add_argument("--log", required=True, help="JSONL event log path")
    return parser


def main(argv: list[str] | None = None) -> int:
    return asyncio.run(_run_node(_parser().parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
