"""Complete runnable scenarios: system + detectors + algorithm + horizon.

A scenario bundles everything one run needs, so experiments and examples can
describe *what* they evaluate declaratively and leave the mechanics (building
the system, attaching the detectors, running to the stop condition, validating
the outcome) to the scenario's ``run`` method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..consensus import ConsensusVerdict, validate_consensus
from ..consensus.base import ConsensusProgram
from ..detectors import CLASSES
from ..identity import ProcessId
from ..membership import Membership
from ..sim import (
    AsynchronousTiming,
    CrashSchedule,
    Simulation,
    TimingModel,
    build_system,
)
from ..sim.failures import FailurePattern
from ..sim.trace import RunTrace

__all__ = ["ConsensusScenario", "DetectorScenario"]


@dataclass
class DetectorScenario:
    """A system whose processes only run a given program (detector study)."""

    membership: Membership
    program_factory: Callable[[ProcessId, Any], Any]
    timing: TimingModel
    crash_schedule: CrashSchedule = field(default_factory=CrashSchedule.none)
    detectors: Mapping[str, Any] = field(default_factory=dict)
    horizon: float = 200.0
    seed: int = 0
    name: str = ""

    def run(self) -> tuple[RunTrace, FailurePattern]:
        """Execute the scenario and return the trace and failure pattern."""
        system = build_system(
            membership=self.membership,
            timing=self.timing,
            program_factory=self.program_factory,
            crash_schedule=self.crash_schedule,
            detectors=self.detectors,
            seed=self.seed,
            name=self.name,
        )
        simulation = Simulation(system)
        trace = simulation.run(until=self.horizon)
        return trace, simulation.failure_pattern


@dataclass
class ConsensusScenario:
    """One consensus run: membership, crashes, detectors, proposals, horizon."""

    membership: Membership
    consensus_factory: Callable[[Any], ConsensusProgram]
    proposals: Mapping[ProcessId, Any] | None = None
    crash_schedule: CrashSchedule = field(default_factory=CrashSchedule.none)
    detectors: Mapping[str, Any] | None = None
    timing: TimingModel = field(
        default_factory=lambda: AsynchronousTiming(min_latency=0.1, max_latency=2.0)
    )
    detector_stabilization: float = 20.0
    horizon: float = 500.0
    seed: int = 0
    name: str = ""

    def resolved_proposals(self) -> dict[ProcessId, Any]:
        """The proposal of every process (distinct defaults when not given)."""
        if self.proposals is not None:
            return dict(self.proposals)
        return {
            process: f"value-{process.index}" for process in self.membership.processes
        }

    def resolved_detectors(self) -> dict[str, Any]:
        """The detector attachments (HΩ and HΣ oracles when not given)."""
        if self.detectors is not None:
            return dict(self.detectors)
        stabilization = self.detector_stabilization
        return {
            "HOmega": lambda services: CLASSES["HOmega"].oracle(
                services, stabilization_time=stabilization, noise_period=5.0
            ),
            "HSigma": lambda services: CLASSES["HSigma"].oracle(
                services, stabilization_time=stabilization
            ),
        }

    def run(self) -> tuple[RunTrace, FailurePattern, ConsensusVerdict]:
        """Execute the run and validate the outcome."""
        proposals = self.resolved_proposals()
        system = build_system(
            membership=self.membership,
            timing=self.timing,
            program_factory=lambda pid, identity: self.consensus_factory(proposals[pid]),
            crash_schedule=self.crash_schedule,
            detectors=self.resolved_detectors(),
            seed=self.seed,
            name=self.name,
        )
        simulation = Simulation(system)
        trace = simulation.run(
            until=self.horizon, stop_when=lambda sim: sim.all_correct_decided()
        )
        verdict = validate_consensus(
            trace, simulation.failure_pattern, proposals, require_termination=False
        )
        return trace, simulation.failure_pattern, verdict
