"""System configurations: which model, which processes, which detectors.

A :class:`System` is a declarative description of a run: the membership (and
therefore the homonymy pattern), the timing model, the crash schedule, the
program each process executes, and the failure detectors the system is
"enriched" with.  The :class:`~repro.sim.scheduler.Simulation` engine turns a
system into an executable run.

The paper's model names map onto :class:`SystemModel` values:

=============  =====================================================
``HAS``        homonymous asynchronous system (``HAS[∅]``)
``HPS``        homonymous, partially synchronous processes, eventually
               timely links (``HPS[∅]``)
``HSS``        homonymous synchronous system (``HSS[∅]``)
``AS``         classical asynchronous system with unique identifiers
``AAS``        anonymous asynchronous system
=============  =====================================================

``AS`` and ``AAS`` are the two homonymy extremes of ``HAS``; the builder
checks the membership actually matches the declared extreme.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Protocol

from ..errors import ConfigurationError
from ..identity import Identity, ProcessId
from ..membership import Membership
from .clock import Clock, Time
from .failures import CrashSchedule, FailurePattern
from .links import LinkModel, ReliableLinks
from .process import ProcessProgram
from .rng import RngStreams
from .timing import (
    AsynchronousTiming,
    PartiallySynchronousTiming,
    SynchronousTiming,
    TimingModel,
)

__all__ = [
    "SystemModel",
    "DetectorServices",
    "DetectorInstance",
    "DetectorFactory",
    "ProgramFactory",
    "CompositeProgram",
    "System",
    "build_system",
]


class SystemModel(enum.Enum):
    """The paper's system families."""

    HAS = "HAS"
    HPS = "HPS"
    HSS = "HSS"
    AS = "AS"
    AAS = "AAS"

    @property
    def is_homonymous_general(self) -> bool:
        """True for the general homonymous families (no constraint on ids)."""
        return self in (SystemModel.HAS, SystemModel.HPS, SystemModel.HSS)


@dataclass
class DetectorServices:
    """What a failure-detector attachment may use while a run executes.

    Oracles use the failure pattern and clock to compute ground-truth outputs;
    every attachment may schedule wake-ups (``schedule``) and ask the engine to
    re-evaluate blocked processes (``poke_all``) when its output changes.
    """

    membership: Membership
    failure_pattern: FailurePattern
    clock: Clock
    rng_streams: RngStreams
    schedule: Callable[[Time, Callable[[], None]], Any]
    poke_all: Callable[[], None]


class DetectorInstance(Protocol):
    """The minimal interface a detector attachment must expose to the engine."""

    def view_for(self, process: ProcessId) -> Any:
        """Return the query view handed to the given process."""
        ...


#: A detector attachment: builds a detector instance when the run starts.
DetectorFactory = Callable[[DetectorServices], DetectorInstance]

#: Builds the program of one process.  Receives the internal process id (so a
#: scenario can hand different proposal values to different processes) and the
#: identifier; the program itself must only rely on the identifier.
ProgramFactory = Callable[[ProcessId, Identity], ProcessProgram]


class CompositeProgram(ProcessProgram):
    """Run several programs on the same process (e.g. consensus + a detector
    implementation stacked underneath it)."""

    def __init__(self, *programs: ProcessProgram) -> None:
        if not programs:
            raise ConfigurationError("a composite program needs at least one component")
        self._programs = programs

    def setup(self, ctx) -> None:
        for program in self._programs:
            program.setup(ctx)

    def describe(self) -> str:
        return " + ".join(program.describe() for program in self._programs)


@dataclass
class System:
    """A complete, declarative run configuration.

    ``debug`` opts one run into diagnostic mode: the simulation's event queue
    builds human-readable event labels (skipped on the hot path otherwise).
    """

    membership: Membership
    timing: TimingModel
    program_factory: ProgramFactory
    crash_schedule: CrashSchedule = field(default_factory=CrashSchedule.none)
    detectors: Mapping[str, DetectorFactory] = field(default_factory=dict)
    links: LinkModel = field(default_factory=ReliableLinks)
    model: SystemModel = SystemModel.HAS
    seed: int = 0
    name: str = ""
    debug: bool = False

    def __post_init__(self) -> None:
        # Building the pattern is also what validates the schedule.
        self._failure_pattern = FailurePattern(self.membership, self.crash_schedule)
        _validate_model(self.model, self.membership, self.timing)

    @property
    def n(self) -> int:
        """The number of processes."""
        return self.membership.size

    def failure_pattern(self) -> FailurePattern:
        """The failure pattern induced by the crash schedule (one per run)."""
        return self._failure_pattern

    def describe(self) -> str:
        """One-line description used in logs and experiment tables."""
        label = self.name or "system"
        links = ""
        if not isinstance(self.links, ReliableLinks):
            links = f" links={self.links.describe()}"
        return (
            f"{label}: {self.model.value}[{self.timing.describe()}] "
            f"{self.membership.describe()} crashes={len(self.crash_schedule.faulty)}"
            f"{links}"
        )


def build_system(
    *,
    membership: Membership,
    timing: TimingModel,
    program_factory: ProgramFactory,
    crash_schedule: CrashSchedule | None = None,
    detectors: Mapping[str, DetectorFactory] | None = None,
    links: LinkModel | None = None,
    model: SystemModel | None = None,
    seed: int = 0,
    name: str = "",
    debug: bool = False,
) -> System:
    """Build a :class:`System`, inferring the model from the timing when omitted."""
    if model is None:
        model = _infer_model(timing)
    return System(
        membership=membership,
        timing=timing,
        program_factory=program_factory,
        crash_schedule=crash_schedule or CrashSchedule.none(),
        detectors=dict(detectors or {}),
        links=links if links is not None else ReliableLinks(),
        model=model,
        seed=seed,
        name=name,
        debug=debug,
    )


def _infer_model(timing: TimingModel) -> SystemModel:
    if isinstance(timing, SynchronousTiming):
        return SystemModel.HSS
    if isinstance(timing, PartiallySynchronousTiming):
        return SystemModel.HPS
    return SystemModel.HAS


def _validate_model(model: SystemModel, membership: Membership, timing: TimingModel) -> None:
    if model is SystemModel.AS and not membership.is_uniquely_identified:
        raise ConfigurationError(
            "an AS system requires unique identifiers; the membership has homonyms"
        )
    if model is SystemModel.AAS and not membership.is_anonymous:
        raise ConfigurationError(
            "an AAS system requires all processes to share one identifier"
        )
    if model is SystemModel.HSS and not isinstance(timing, SynchronousTiming):
        raise ConfigurationError("an HSS system requires a synchronous timing model")
    if model is SystemModel.HPS and not isinstance(timing, PartiallySynchronousTiming):
        raise ConfigurationError(
            "an HPS system requires a partially synchronous timing model"
        )
    if model in (SystemModel.HAS, SystemModel.AS, SystemModel.AAS) and isinstance(
        timing, SynchronousTiming
    ):
        raise ConfigurationError(
            "asynchronous system families cannot use a synchronous timing model; "
            "declare the system as HSS instead"
        )
