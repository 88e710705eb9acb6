"""Lemmas 2–3 / Theorem 4: ◇HP and HΣ from AP in ``AAS[∅]``, no communication.

Both transformations read the AP detector's ``anap`` bound and rewrite it as a
multiset of ``anap`` copies of the default identifier ``⊥``:

* **Lemma 2** (:class:`APToDiamondHP`): ``h_trusted ← ⊥^anap``.  Once ``anap``
  is tight (equals ``|Correct|``), ``h_trusted`` equals ``I(Correct)`` because
  every identifier in an anonymous system is ``⊥``.
* **Lemma 3** (:class:`APToHSigma`): for each observed value ``y`` of
  ``anap``, the label ``⊥^y`` is added to ``h_labels`` and the pair
  ``(⊥^y, ⊥^y)`` to ``h_quora``.
"""

from __future__ import annotations

from ..detectors.table import CLASSES
from ..detectors.views import DiamondHPView, HSigmaView
from ..identity import ANONYMOUS_IDENTITY, IdentityMultiset
from ..sim.process import ProcessContext
from .base import PeriodicReductionProgram

__all__ = ["APToDiamondHP", "APToHSigma"]

#: The trace keys of the emulated classes.
(_H_TRUSTED,) = CLASSES["DiamondHP"].keys
_H_QUORA, _H_LABELS = CLASSES["HSigma"].keys


class APToDiamondHP(PeriodicReductionProgram):
    """Lemma 2: ◇HP from AP (code for one process)."""

    def __init__(
        self,
        *,
        source_detector: str = "AP",
        default_identity=ANONYMOUS_IDENTITY,
        **kwargs,
    ) -> None:
        super().__init__(source_detector=source_detector, **kwargs)
        self._default_identity = default_identity
        self.h_trusted = IdentityMultiset()

    def emulated_view(self) -> DiamondHPView:
        return DiamondHPView(lambda: self.h_trusted)

    def refresh(self, ctx: ProcessContext) -> None:
        bound = ctx.detector(self.source_detector).anap
        self.h_trusted = IdentityMultiset.uniform(self._default_identity, bound)
        if self.record_outputs:
            ctx.record(_H_TRUSTED, self.h_trusted)

    def describe(self) -> str:
        return "Lemma-2 AP→◇HP"


class APToHSigma(PeriodicReductionProgram):
    """Lemma 3: HΣ from AP (code for one process)."""

    def __init__(
        self,
        *,
        source_detector: str = "AP",
        default_identity=ANONYMOUS_IDENTITY,
        **kwargs,
    ) -> None:
        super().__init__(source_detector=source_detector, **kwargs)
        self._default_identity = default_identity
        self.h_labels: frozenset = frozenset()
        self.h_quora: frozenset = frozenset()

    def emulated_view(self) -> HSigmaView:
        return HSigmaView(lambda: (self.h_quora, self.h_labels))

    def refresh(self, ctx: ProcessContext) -> None:
        bound = ctx.detector(self.source_detector).anap
        quorum = IdentityMultiset.uniform(self._default_identity, bound)
        label = quorum  # the label ⊥^y is the multiset itself
        self.h_labels = self.h_labels | {label}
        self.h_quora = self.h_quora | {(label, quorum)}
        if self.record_outputs:
            ctx.record(_H_QUORA, self.h_quora)
            ctx.record(_H_LABELS, self.h_labels)

    def describe(self) -> str:
        return "Lemma-3 AP→HΣ"
