"""System configurations: which processes, which timing, which detectors.

A :class:`System` is a declarative description of a run: the membership (and
therefore the homonymy pattern), the timing model, the crash schedule, the
program each process executes, and the failure detectors the system is
"enriched" with.  The :class:`~repro.sim.scheduler.Simulation` engine turns a
system into an executable run.

The paper's system family is the timing model itself: asynchronous is
``HAS``, partially synchronous ``HPS``, synchronous ``HSS``.  What a program
or consensus algorithm requires of the timing or the membership is checked
once, by the scenario builder's requirement table (``requires_timing``,
``membership_constraint``), before a spec reaches :func:`build_system`.
"""

from __future__ import annotations

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
from .timing import TimingModel

__all__ = [
    "DetectorServices",
    "DetectorInstance",
    "DetectorFactory",
    "ProgramFactory",
    "CompositeProgram",
    "System",
    "build_system",
]


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
    """A complete, declarative run configuration."""

    membership: Membership
    timing: TimingModel
    program_factory: ProgramFactory
    crash_schedule: CrashSchedule = field(default_factory=CrashSchedule.none)
    detectors: Mapping[str, DetectorFactory] = field(default_factory=dict)
    links: LinkModel = field(default_factory=ReliableLinks)
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        # Building the pattern is also what validates the schedule.
        self._failure_pattern = FailurePattern(self.membership, self.crash_schedule)

    def failure_pattern(self) -> FailurePattern:
        """The failure pattern induced by the crash schedule (one per run)."""
        return self._failure_pattern


def build_system(
    *,
    membership: Membership,
    timing: TimingModel,
    program_factory: ProgramFactory,
    crash_schedule: CrashSchedule | None = None,
    detectors: Mapping[str, DetectorFactory] | None = None,
    links: LinkModel | None = None,
    seed: int = 0,
    name: str = "",
) -> System:
    """Build a :class:`System`, filling in the defaults of the optional parts."""
    return System(
        membership=membership,
        timing=timing,
        program_factory=program_factory,
        crash_schedule=crash_schedule or CrashSchedule.none(),
        detectors=dict(detectors or {}),
        links=links if links is not None else ReliableLinks(),
        seed=seed,
        name=name,
    )

