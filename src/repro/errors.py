"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library problems without masking programming errors elsewhere.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A system, scenario, or algorithm was configured inconsistently.

    Examples: a crash schedule that kills more processes than exist, a
    partially synchronous timing model with a negative GST, or a consensus
    algorithm instantiated with fewer correct processes than it requires.
    """


class SimulationError(ReproError):
    """The simulation engine reached an invalid internal state."""


class WorkerCrashError(ReproError):
    """A worker process died while executing part of a sweep.

    Raised by :class:`~repro.runtime.executors.WorkerPool`, naming the
    scenarios (name + seed) the dead worker still held so the offending
    configuration can be reproduced serially.  ``candidates`` holds the
    descriptions of every item whose result was lost; the crashing item is
    guaranteed to be among them.

    ``history`` carries the retry/backoff story across the owning executor's
    lifetime — one entry per prior crash (attempt number, cause) — and is
    folded into the message, so a sweep that kept respawning a dying pool is
    diagnosable from the final log line alone.
    """

    def __init__(
        self,
        message: str,
        *,
        candidates: "list[str] | None" = None,
        history: "list[str] | None" = None,
    ) -> None:
        self.candidates: list[str] = list(candidates or [])
        self.history: list[str] = list(history or [])
        if self.history:
            message = (
                f"{message} [crash history: {len(self.history)} attempt(s): "
                f"{'; '.join(self.history)}]"
            )
        super().__init__(message)


class ProcessCrashedError(SimulationError):
    """An operation was attempted on behalf of a crashed process."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or outside the run horizon."""


class DetectorError(ReproError):
    """A failure detector was queried or constructed incorrectly."""


class ReductionError(ReproError):
    """A failure-detector reduction was applied in an unsupported model.

    For instance, the Figure 4 reduction (HΣ → Σ) is only defined for systems
    with unique identifiers; applying it to a run with homonyms raises this.
    """
