"""Theorem 3: building HΣ from AΣ in ``AAS[∅]`` without communication.

In an anonymous system every process carries the default identifier ``⊥``.
For each pair ``(x, y)`` of the AΣ detector, the reduction inserts label ``x``
into ``h_labels`` and the pair ``(x, ⊥^y)`` into ``h_quora`` (replacing any
previous pair with the same label — AΣ monotonicity guarantees the new ``y``
is no larger, so the HΣ monotonicity requirement ``m' ⊆ m`` is preserved).
"""

from __future__ import annotations

from ..detectors.table import CLASSES
from ..detectors.views import HSigmaView
from ..identity import ANONYMOUS_IDENTITY, IdentityMultiset
from ..sim.process import ProcessContext
from .base import PeriodicReductionProgram

__all__ = ["ASigmaToHSigma"]

#: The trace keys of the emulated class.
_H_QUORA, _H_LABELS = CLASSES["HSigma"].keys


class ASigmaToHSigma(PeriodicReductionProgram):
    """The Theorem 3 transformation (code for one process)."""

    def __init__(
        self,
        *,
        source_detector: str = "ASigma",
        default_identity=ANONYMOUS_IDENTITY,
        **kwargs,
    ) -> None:
        super().__init__(source_detector=source_detector, **kwargs)
        self._default_identity = default_identity
        self.h_labels: frozenset = frozenset()
        self._quora_by_label: dict = {}

    @property
    def h_quora(self) -> frozenset:
        """The current emulated ``h_quora`` set of ``(label, multiset)`` pairs."""
        return frozenset(self._quora_by_label.items())

    def emulated_view(self) -> HSigmaView:
        return HSigmaView(lambda: (self.h_quora, self.h_labels))

    def refresh(self, ctx: ProcessContext) -> None:
        pairs = ctx.detector(self.source_detector).a_sigma
        for label, size in pairs:
            self.h_labels = self.h_labels | {label}
            self._quora_by_label[label] = IdentityMultiset.uniform(
                self._default_identity, size
            )
        if self.record_outputs:
            ctx.record(_H_QUORA, self.h_quora)
            ctx.record(_H_LABELS, self.h_labels)

    def describe(self) -> str:
        return "Theorem-3 AΣ→HΣ"
