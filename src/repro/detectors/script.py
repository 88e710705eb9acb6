"""Oracle for the auxiliary class ℰ (Definition 1 of the paper).

A detector of class ℰ gives each process a *sequence* ``alive`` of
identifiers such that eventually the identifiers of the correct processes are
permanently in the prefix: for every correct ``q``,
``rank(id(q), alive_p) ≤ |Correct|``.

The class is only defined for systems with unique identifiers; it is used by
the Figure 4 reduction (HΣ → Σ) to pick, among candidate quorums, one made of
low-ranked — eventually correct — processes.  The message-passing
implementation of ℰ (Figure 3) lives in :mod:`repro.algorithms.script_alive`.
"""

from __future__ import annotations

from ..errors import DetectorError
from ..identity import ProcessId
from ..sim.system import DetectorServices
from .base import OracleDetector, stable_draw
from .views import ScriptEView

__all__ = ["ScriptEOracle"]


class ScriptEOracle(OracleDetector):
    """Ground-truth ℰ: correct identifiers ranked first after stabilization."""

    def __init__(self, services: DetectorServices, **kwargs) -> None:
        if not services.membership.is_uniquely_identified:
            raise DetectorError(
                "class ℰ is only defined for systems with unique identifiers"
            )
        super().__init__(services, **kwargs)

    def view_for(self, process: ProcessId) -> ScriptEView:
        def ranked(key) -> tuple:
            members = sorted(self.membership.processes, key=key)
            return tuple(self.membership.identity_of(other) for other in members)

        def correct_first() -> tuple:
            # Correct processes first (each group ordered deterministically).
            return ranked(lambda other: (not self.pattern.is_correct(other), other.index))

        def shuffled(window: int) -> tuple:
            # An arbitrary—but deterministic—pre-stabilization order that
            # differs across processes and noise windows.
            return ranked(lambda other: stable_draw(process.index, window, other.index))

        return ScriptEView(self.reader(correct_first, self.per_window(shuffled)))
