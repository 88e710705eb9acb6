"""Observation 1: HΩ from ◇HP without any communication.

Each process periodically sets ``h_leader`` to the smallest identifier of the
◇HP detector's ``h_trusted`` multiset and ``h_multiplicity`` to that
identifier's multiplicity.  Once ``h_trusted`` has converged to ``I(Correct)``
at every correct process, all of them agree on the same correct identifier and
its correct multiplicity — the HΩ election property.
"""

from __future__ import annotations

from ..detectors.table import CLASSES
from ..detectors.views import HOmegaView
from ..identity import Identity
from ..sim.process import ProcessContext
from .base import PeriodicReductionProgram

__all__ = ["DiamondHPToHOmega"]

#: The trace keys of the emulated class.
_H_LEADER, _H_MULTIPLICITY = CLASSES["HOmega"].keys


class DiamondHPToHOmega(PeriodicReductionProgram):
    """The Observation 1 transformation (code for one process)."""

    def __init__(self, *, source_detector: str = "DiamondHP", **kwargs) -> None:
        super().__init__(source_detector=source_detector, **kwargs)
        self.h_leader: Identity | None = None
        self.h_multiplicity: int = 0

    def emulated_view(self) -> HOmegaView:
        return HOmegaView(lambda: (self.h_leader, self.h_multiplicity))

    def on_setup(self, ctx: ProcessContext) -> None:
        self.h_leader = ctx.identity
        self.h_multiplicity = 1

    def refresh(self, ctx: ProcessContext) -> None:
        trusted = ctx.detector(self.source_detector).h_trusted
        if not trusted.is_empty():
            self.h_leader = trusted.min_identity()
            self.h_multiplicity = trusted.multiplicity(self.h_leader)
        if self.record_outputs:
            ctx.record(_H_LEADER, self.h_leader)
            ctx.record(_H_MULTIPLICITY, self.h_multiplicity)

    def describe(self) -> str:
        return "Observation-1 ◇HP→HΩ"
