"""Shared helpers for tests: running probe systems and building detector services."""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import Mapping

from repro.membership import Membership
from repro.sim import (
    AsynchronousTiming,
    Clock,
    CrashSchedule,
    DetectorServices,
    RngStreams,
    Simulation,
    build_system,
)
from repro.sim.failures import FailurePattern
from repro.detectors.probe import DetectorProbeProgram


def make_services(
    membership: Membership,
    *,
    crash_schedule: CrashSchedule | None = None,
    clock: Clock | None = None,
    seed: int = 0,
) -> DetectorServices:
    """Build stand-alone detector services (for unit-testing oracles)."""
    schedule = crash_schedule or CrashSchedule.none()
    return DetectorServices(
        membership=membership,
        failure_pattern=FailurePattern(membership, schedule),
        clock=clock or Clock(),
        rng_streams=RngStreams(seed),
        schedule=lambda when, action: None,
        poke_all=lambda: None,
    )


def run_probe_system(
    membership: Membership,
    detectors: Mapping,
    probes: Mapping,
    *,
    crash_schedule: CrashSchedule | None = None,
    timing=None,
    until: float = 60.0,
    period: float = 1.0,
    seed: int = 3,
):
    """Run a system whose every process samples the attached detectors.

    Returns ``(simulation, trace)``.
    """
    system = build_system(
        membership=membership,
        timing=timing or AsynchronousTiming(min_latency=0.1, max_latency=1.0),
        program_factory=lambda pid, identity: DetectorProbeProgram(probes, period=period),
        crash_schedule=crash_schedule,
        detectors=detectors,
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=until)
    return simulation, trace


def poison_run_one(config: dict) -> dict:
    """Chaos-test workload: a poison config kills the whole worker process.

    ``os._exit`` (not an exception) models the real failure the coordinator's
    bisection exists for — a config that segfaults or OOMs the interpreter,
    where no amount of in-process error handling can help.
    """
    if config.get("poison"):
        os._exit(23)
    return {"value": config["x"] * 2, "x": config["x"]}


def faulty_run_one(config: dict) -> dict:
    """E1's per-config runner, except that a config carrying ``fault`` misbehaves.

    It misbehaves *once*: the first execution creates the ``marker`` file and
    fails in the requested way, every later one runs clean — so a policy that
    retries converges to the same rows a fault-free run produces.
    """
    from repro.experiments.e1_ohp_convergence import _run_one

    config = dict(config)
    fault, marker = config.pop("fault", None), config.pop("marker", None)
    if fault and not os.path.exists(marker):
        Path(marker).touch()
        if fault in ("sigkill", "sigstop"):
            os.kill(os.getpid(), getattr(signal, fault.upper()))
        if fault == "exit":
            os._exit(23)
        if fault == "raise":
            raise ValueError("injected failure")
        if fault == "unpicklable":
            return {"converged": lambda: None}
    return _run_one(config)


def wait_until_dead(pid: int, timeout: float = 5.0) -> None:
    """Block until process ``pid`` is gone or a zombie (signals land asynchronously)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            return
        if stat.rpartition(")")[2].split()[0] == "Z":
            return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} still alive after {timeout}s")
