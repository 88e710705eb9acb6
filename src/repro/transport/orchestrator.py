"""The local orchestrator: N node subprocesses, faults, logs → RunRecord.

:func:`execute_real_spec` is the real backend's twin of
:func:`repro.runtime.engine.execute_spec`'s sim path: it takes the same
declarative :class:`ScenarioSpec` (with ``backend="real"``), materialises the
membership, spawns one ``python -m repro.transport.node`` subprocess per
process, coordinates a common start time over a control socket, injects the
spec's crash schedule as OS signals (recording ``t_fail`` on the shared
monotonic base — SIGSTOP faults with a ``resume_after`` get their SIGCONT
too), collects every node's JSONL log, and judges the run as a simulated one
is judged: :func:`~repro.transport.events.load_trace` folds the logs into a
:class:`~repro.sim.trace.RunTrace` and
:func:`~repro.runtime.engine.fold_checks` applies ``spec.checks`` to it, so a
registered check means the same thing on both backends and a sweep can
interleave them.  The record adds only what a simulated run has no use for
(``backend``, measured ``t_fail``, ``time_scale``, ``nodes``, ``link``,
``log_dir``).

Tunables come from ``spec.backend_params`` (all optional):

* ``time_scale`` (default 0.05) — wall seconds per scenario time unit;
* ``settle`` (default 0.3) — margin between "all ready" and t0;
* ``ready_timeout`` (default 20) — how long to wait for every node to mesh
  up and report ready before declaring the run stillborn;
* ``mesh_deadline`` (default 20) — per-node outbound-dial budget, forwarded
  as ``--mesh-deadline`` (slow CI machines raise both of these);
* ``link`` — a loss/delay/jitter/duplicate mapping applied to every peer
  link via :class:`~repro.transport.node.ShapedLink`, mirroring
  ``repro.sim.links`` envelopes on real TCP;
* ``fault_action`` (``"kill"``/``"suspend"``) and ``resume_after`` — how the
  crash schedule is injected (see :mod:`repro.transport.faults`);
* ``log_dir`` / ``keep_logs`` — where the JSONL evidence lands.

Cleanup is unconditional: node subprocesses are reaped and the temporary log
directory removed on *every* exit path — normal completion, a mid-run
exception, or SIGINT (``KeyboardInterrupt`` unwinds through the same
``finally``) — never only on success.

Everything runs on localhost.  Multi-host orchestration (ssh fan-out, shared
log collection) is ROADMAP item 4 territory and deliberately out of scope.
"""

from __future__ import annotations

import asyncio
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ..errors import ConfigurationError
from ..runtime.engine import RunRecord, fold_checks
from ..runtime.spec import ScenarioSpec
from ..sim.failures import FailurePattern
from .events import EventLog, load_trace
from .faults import FaultPlan, fault_plan
from .framing import encode_frame, read_frame
from .node import MESH_DEADLINE_SECONDS, validate_link_params

__all__ = ["execute_real_spec", "resolve_timeouts"]

#: Default wall seconds per scenario time unit (0.05 ⇒ a 20-unit run ≈ 1 s).
DEFAULT_TIME_SCALE = 0.05
#: Margin between "all nodes ready" and t0, so every node sees the start frame
#: and wakes on the common origin.
DEFAULT_SETTLE_SECONDS = 0.3
#: Default wait for the full fleet to report ready (``ready_timeout`` param).
DEFAULT_READY_TIMEOUT = 20.0
_EXIT_GRACE = 5.0


def resolve_timeouts(params: dict) -> tuple[float, float]:
    """``(ready_timeout, mesh_deadline)`` from backend params, validated.

    Both used to be hard-coded module constants; slow CI machines (or huge
    fleets) raise them per spec via ``backend_params`` now.
    """
    ready_timeout = float(params.get("ready_timeout", DEFAULT_READY_TIMEOUT))
    mesh_deadline = float(params.get("mesh_deadline", MESH_DEADLINE_SECONDS))
    if ready_timeout <= 0:
        raise ConfigurationError(f"ready_timeout must be positive, got {ready_timeout}")
    if mesh_deadline <= 0:
        raise ConfigurationError(f"mesh_deadline must be positive, got {mesh_deadline}")
    return ready_timeout, mesh_deadline


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _python_path() -> str:
    """A PYTHONPATH that lets the node subprocess import :mod:`repro`."""
    import os

    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    if src_root in existing.split(os.pathsep):
        return existing
    return src_root + (os.pathsep + existing if existing else "")


def execute_real_spec(spec: ScenarioSpec) -> RunRecord:
    """Execute one ``backend="real"`` scenario and return its record."""
    if spec.program is None:
        raise ConfigurationError("the real backend needs a program workload")
    return asyncio.run(_orchestrate(spec))


def _injection_timeline(plan: FaultPlan) -> list[tuple[float, str, object]]:
    """Faults plus their scheduled SIGCONT resumes, in one sorted timeline."""
    timeline: list[tuple[float, str, object]] = []
    for action in plan.actions:
        timeline.append((action.at, "fault", action))
        if action.resume_after is not None:
            timeline.append((action.at + action.resume_after, "resume", action))
    timeline.sort(key=lambda entry: entry[0])
    return timeline


async def _orchestrate(spec: ScenarioSpec) -> RunRecord:
    import json
    import os

    membership = spec.membership.build()
    n = membership.size
    params = dict(spec.backend_params)
    time_scale = float(params.get("time_scale", DEFAULT_TIME_SCALE))
    settle = float(params.get("settle", DEFAULT_SETTLE_SECONDS))
    ready_timeout, mesh_deadline = resolve_timeouts(params)
    link = validate_link_params(dict(params["link"])) if params.get("link") else None
    plan = fault_plan(spec, membership)

    explicit_dir = params.get("log_dir")
    keep_logs = bool(params.get("keep_logs", explicit_dir is not None))
    log_dir = Path(explicit_dir) if explicit_dir else Path(
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

    identities = [membership.identity_of(process) for process in membership.processes]
    env = {**os.environ, "PYTHONPATH": _python_path()}
    procs: list[subprocess.Popen] = []
    stdio: list = []
    control = None
    injector: EventLog | None = None
    completed = False
    # Everything from here on — including the spawn loop itself — runs under
    # one ``finally``: a Popen that fails for node k, a SIGINT while waiting
    # for ready, or a mid-run exception must still reap the nodes spawned so
    # far, close every handle, and (unless logs were asked for) remove the
    # temp directory.  Leaked node processes are exactly the orphans the
    # chaos soak hunts for.
    try:
        control = await asyncio.start_server(_control, "127.0.0.1", 0)
        control_port = control.sockets[0].getsockname()[1]

        # -- spawn nodes ---------------------------------------------------
        for index in range(n):
            peers = [
                [other, "127.0.0.1", ports[other]] for other in range(n) if other != index
            ]
            out = open(log_dir / f"node{index}.out", "w", encoding="utf-8")
            stdio.append(out)
            command = [
                sys.executable,
                "-m",
                "repro.transport.node",
                "--index", str(index),
                "--identity", json.dumps(identities[index]),
                "--port", str(ports[index]),
                "--peers", json.dumps(peers),
                "--control", f"127.0.0.1:{control_port}",
                "--epoch", repr(epoch),
                "--time-scale", repr(time_scale),
                "--program", spec.program,
                "--program-params", json.dumps(dict(spec.program_params)),
                "--seed", str(spec.seed),
                "--horizon", repr(spec.horizon),
                "--log", str(log_dir / f"node{index}.jsonl"),
                "--mesh-deadline", repr(mesh_deadline),
            ]
            if link is not None:
                command += ["--link", json.dumps(link)]
            procs.append(
                subprocess.Popen(command, env=env, stdout=out, stderr=subprocess.STDOUT)
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

        t0 = (time.monotonic() - epoch) + settle
        injector = EventLog(
            log_dir / "injector.jsonl", epoch=epoch, t0=t0, time_scale=time_scale
        )
        injector.log(
            "run_start", t0=round(t0, 6), nodes=n, time_scale=time_scale,
            link=link, shaped=link is not None,
        )
        start_frame = encode_frame({"event": "start", "t0": t0})
        for writer in ready.values():
            writer.write(start_frame)
            await writer.drain()

        # -- fault injection (t_fail on the shared base, Snippet 1 §8) ----
        for at, kind, action in _injection_timeline(plan):
            target_wall = epoch + t0 + at * time_scale
            await asyncio.sleep(max(0.0, target_wall - time.monotonic()))
            proc = procs[action.index]
            if kind == "resume":
                if proc.poll() is None:
                    proc.send_signal(signal.SIGCONT)
                injector.log(
                    "fault_resumed", victim=action.index, identity=action.identity
                )
                continue
            sig = signal.SIGKILL if action.action == "kill" else signal.SIGSTOP
            if proc.poll() is None:
                proc.send_signal(sig)
            injector.log(
                "fault_injected",
                victim=action.index,
                identity=action.identity,
                action=action.action,
            )

        # -- wait for the horizon and self-exits --------------------------
        deadline = epoch + t0 + spec.horizon * time_scale + _EXIT_GRACE
        victims = set(plan.victims)
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
    if link is not None:
        metrics["link"] = link
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
