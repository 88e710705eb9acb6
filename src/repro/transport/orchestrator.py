"""The local orchestrator: N node subprocesses, faults, logs → RunRecord.

:func:`execute_real_spec` is the real backend's twin of
:func:`repro.runtime.engine.execute_spec`'s sim path: it takes the same
declarative :class:`ScenarioSpec` (with ``backend="real"``), materialises the
membership, spawns one ``python -m repro.transport.node`` subprocess per
process, coordinates a common start time over a control socket, injects the
spec's crash schedule as OS signals (recording ``t_fail`` on the shared
monotonic base — SIGSTOP faults with a ``resume_after`` get their SIGCONT
too), collects every node's JSONL :class:`~repro.events.EventLog`, and judges
the run as a simulated one is judged: :func:`load_trace` folds the logs into a
:class:`~repro.sim.trace.RunTrace` and
:func:`~repro.runtime.engine.fold_checks` applies ``spec.checks`` to it, so a
registered check means the same thing on both backends and a sweep can
interleave them.  The record adds only what a simulated run has no use for
(``backend``, measured ``t_fail``, ``time_scale``, ``nodes``, ``log_dir``).

A run is described once: every node is started with the spec itself
(``--spec``, its JSON) beside its deployment settings (index, ports, control
socket, epoch, log path), and reads its identity, program, seed, horizon,
time scale and links from it.  Links follow the spec's own ``network``
section, as on the simulator: each node writes to every peer through its
:class:`~repro.sim.links.LinkModel` (:class:`~repro.transport.node.ShapedLink`),
and the builder holds it to the same envelope check and ``.adversarial()``
acknowledgement on both backends.  The ``run_start`` line of
``injector.jsonl`` names the spec too, so a log directory says what ran.

Tunables are ``spec.backend_params``: the keywords of
:class:`~repro.runtime.spec.RealBackend`, which holds every default and
check.

Cleanup is unconditional: node subprocesses are reaped and the temporary log
directory removed on *every* exit path — normal completion, a mid-run
exception, or SIGINT (``KeyboardInterrupt`` unwinds through the same
``finally``) — never only on success.

Everything runs on localhost.  Multi-host orchestration (ssh fan-out, shared
log collection) is deliberately out of scope.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ..events import EventLog, read_events
from ..membership import Membership
from ..runtime.engine import RunRecord, fold_checks
from ..runtime.fleet import python_path
from ..runtime.spec import RealBackend, ScenarioSpec
from ..sim.failures import FailurePattern
from ..sim.trace import RunTrace
from .faults import injection_timeline
from .framing import encode_frame, read_frame

__all__ = ["execute_real_spec", "load_trace"]

_EXIT_GRACE = 5.0


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def load_trace(log_dir: str | Path, membership: Membership) -> RunTrace:
    """Fold a real run's log directory into the simulator's trace type.

    ``node<i>.jsonl`` is process ``i``'s history: ``<key> value=…`` lines are
    its ``ctx.record`` snapshots, ``decide`` its decision, ``msg_send`` /
    ``msg_recv`` the message accounting.  ``injector.jsonl`` holds the crash
    ledger — ``fault_injected`` at the *measured* ``t_fail`` — and the run's
    end.  Lines without a scenario time (written before ``t0``) are skipped.
    """
    log_dir = Path(log_dir)
    trace = RunTrace()
    for process in membership.processes:
        for entry in read_events(log_dir / f"node{process.index}.jsonl"):
            event, t = entry["event"], entry.get("t")
            if t is None:
                continue
            if event == "msg_send":
                trace.record_broadcast(entry["kind"], entry["copies"])
            elif event == "msg_recv":
                trace.record_delivery(entry["kind"])
            elif event == "decide":
                trace.record_decision(process, entry["value"], t)
            elif "value" in entry:
                trace.record(process, event, entry["value"], t)
    for entry in read_events(log_dir / "injector.jsonl"):
        if entry["event"] == "fault_injected":
            trace.record_crash(membership.processes[entry["victim"]], entry["t"])
        elif entry["event"] == "run_end":
            trace.mark_end(entry["t"])
    return trace


def execute_real_spec(spec: ScenarioSpec) -> RunRecord:
    """Execute one ``backend="real"`` scenario and return its record."""
    return asyncio.run(_orchestrate(spec))


def _node_args(
    spec: ScenarioSpec, index: int, ports: list[int], control: str, epoch: float, log_dir: Path
) -> list[str]:
    """Node ``index``'s command-line arguments: the spec, and its place in the deployment."""
    peers = [[other, "127.0.0.1", port] for other, port in enumerate(ports) if other != index]
    return [
        "--spec", spec.to_json(),
        "--index", str(index),
        "--port", str(ports[index]),
        "--peers", json.dumps(peers),
        "--control", control,
        "--epoch", repr(epoch),
        "--log", str(log_dir / f"node{index}.jsonl"),
    ]


async def _orchestrate(spec: ScenarioSpec) -> RunRecord:
    membership = spec.membership.build()
    n = membership.size
    settings = RealBackend(**spec.backend_params)
    time_scale, ready_timeout = settings.time_scale, settings.ready_timeout

    keep_logs = settings.log_dir is not None if settings.keep_logs is None else settings.keep_logs
    log_dir = Path(settings.log_dir) if settings.log_dir else Path(
        tempfile.mkdtemp(prefix="repro-transport-")
    )
    log_dir.mkdir(parents=True, exist_ok=True)

    ports = [_free_port() for _ in range(n)]
    epoch = time.monotonic()

    # -- control socket: nodes report ready, we broadcast start -----------
    ready: dict[int, asyncio.StreamWriter] = {}
    all_ready = asyncio.Event()

    async def _control(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        frame = await read_frame(reader)
        if frame and frame.get("event") == "node_ready":
            ready[int(frame["index"])] = writer
            if len(ready) == n:
                all_ready.set()

    env = {**os.environ, "PYTHONPATH": python_path()}
    procs: list[subprocess.Popen] = []
    stdio: list = []
    control = None
    injector: EventLog | None = None
    completed = False
    # Everything from here on — including the spawn loop itself — runs under
    # one ``finally``: a Popen that fails for node k, a SIGINT while waiting
    # for ready, or a mid-run exception must still reap the nodes spawned so
    # far, close every handle, and (unless logs were asked for) remove the
    # temp directory: a leaked node process is an orphan that outlives the run.
    try:
        control = await asyncio.start_server(_control, "127.0.0.1", 0)
        control_port = control.sockets[0].getsockname()[1]

        # -- spawn nodes ---------------------------------------------------
        for index in range(n):
            out = open(log_dir / f"node{index}.out", "w", encoding="utf-8")
            stdio.append(out)
            args = _node_args(spec, index, ports, f"127.0.0.1:{control_port}", epoch, log_dir)
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro.transport.node", *args],
                    env=env, stdout=out, stderr=subprocess.STDOUT,
                )
            )

        try:
            await asyncio.wait_for(all_ready.wait(), timeout=ready_timeout)
        except asyncio.TimeoutError:
            dead = [i for i, proc in enumerate(procs) if proc.poll() is not None]
            raise RuntimeError(
                f"nodes never reached ready within {ready_timeout}s "
                f"(exited early: {dead}); raise backend_params['ready_timeout'] "
                f"on slow machines; see {log_dir}/node*.out"
            ) from None

        t0 = (time.monotonic() - epoch) + settings.settle
        injector = EventLog(
            log_dir / "injector.jsonl", epoch=epoch, t0=t0, time_scale=time_scale
        )
        injector.log(
            "run_start", t0=round(t0, 6), nodes=n, time_scale=time_scale, spec=spec.to_dict()
        )
        start_frame = encode_frame({"event": "start", "t0": t0})
        for writer in ready.values():
            writer.write(start_frame)
            await writer.drain()

        # -- fault injection (t_fail on the shared base, Snippet 1 §8) ----
        timeline = injection_timeline(spec, membership)
        for at, kind, index in timeline:
            target_wall = epoch + t0 + at * time_scale
            await asyncio.sleep(max(0.0, target_wall - time.monotonic()))
            proc = procs[index]
            identity = membership.identity_of(membership.processes[index])
            if kind == "resume":
                if proc.poll() is None:
                    proc.send_signal(signal.SIGCONT)
                injector.log("fault_resumed", victim=index, identity=identity)
                continue
            sig = signal.SIGKILL if settings.fault_action == "kill" else signal.SIGSTOP
            if proc.poll() is None:
                proc.send_signal(sig)
            injector.log(
                "fault_injected", victim=index, identity=identity, action=settings.fault_action
            )

        # -- wait for the horizon and self-exits --------------------------
        deadline = epoch + t0 + spec.horizon * time_scale + _EXIT_GRACE
        victims = {index for _, kind, index in timeline if kind == "fault"}
        while time.monotonic() < deadline:
            if all(
                proc.poll() is not None
                for index, proc in enumerate(procs)
                if index not in victims
            ):
                break
            await asyncio.sleep(0.05)
        injector.log("run_end")
        completed = True
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        for proc in procs:
            proc.wait()
        for handle in stdio:
            handle.close()
        if injector is not None:
            injector.close()
        if control is not None:
            control.close()
            await control.wait_closed()
        if not completed and not keep_logs:
            # Failed or interrupted run: nothing downstream will read these
            # logs, so the temp dir must not outlive the exception.
            shutil.rmtree(log_dir, ignore_errors=True)

    trace = load_trace(log_dir, membership)
    pattern = FailurePattern(membership, spec.crashes.build(membership))
    metrics = fold_checks(trace, pattern, spec.checks)
    metrics.update(
        backend="real",
        t_fail={str(process.index): when for process, when in sorted(trace.crashes.items())},
        decided=any(trace.decided(process) for process in pattern.correct),
        time_scale=time_scale,
        nodes=n,
    )
    if keep_logs:
        metrics["log_dir"] = str(log_dir)
    record = RunRecord(
        scenario=spec.name,
        seed=spec.seed,
        config=spec.to_dict(),
        metrics=metrics,
        digest="",  # real runs are nondeterministic: no dispatch-order digest
    )
    if not keep_logs:
        shutil.rmtree(log_dir, ignore_errors=True)
    return record
