"""Figure 4 / Theorem 2: building Σ from HΣ in ``AS[HΣ]`` (unique identifiers).

The reduction combines two ingredients:

* the HΣ detector ``D`` (source), and
* a detector ``X`` of the auxiliary class ℰ (Definition 1), which can itself
  be built without any detector in ``AS[∅]`` (Figure 3 /
  :class:`~repro.algorithms.script_alive.ScriptAliveProgram`).

Task T1 repeatedly broadcasts ``LABELS(id(p), D.h_labels_p)`` and, whenever
some pair ``(x, m) ∈ D.h_quora_p`` is *covered* — every identifier of ``m``
is known to carry label ``x`` (via the ``idents_p[x]`` sets maintained by
Task T2) — picks among the covered candidates the multiset whose worst rank
in ``X.alive`` is smallest and outputs it as the Σ quorum ``trusted_p``.

Task T2 records, for every label it hears about, which identifiers announced
carrying it.
"""

from __future__ import annotations

from ..detectors.table import CLASSES
from ..detectors.views import SigmaView
from ..errors import ReductionError
from ..identity import IdentityMultiset
from ..sim.message import Message
from ..sim.process import ProcessContext
from .base import PeriodicReductionProgram

__all__ = ["HSigmaToSigma"]

#: The trace keys of the emulated class.
(_TRUSTED,) = CLASSES["Sigma"].keys


class HSigmaToSigma(PeriodicReductionProgram):
    """The Figure 4 reduction (code for one process)."""

    def __init__(
        self,
        *,
        source_detector: str = "HSigma",
        script_e_detector: str = "ScriptE",
        **kwargs,
    ) -> None:
        super().__init__(source_detector=source_detector, **kwargs)
        self.script_e_detector = script_e_detector
        self.trusted: frozenset = frozenset()
        self._idents: dict = {}

    def emulated_view(self) -> SigmaView:
        return SigmaView(lambda: self.trusted)

    def on_setup(self, ctx: ProcessContext) -> None:
        ctx.on("LABELS", self._on_labels)

    # ------------------------------------------------------------------
    # Task T1
    # ------------------------------------------------------------------
    def refresh(self, ctx: ProcessContext) -> None:
        hsigma = ctx.detector(self.source_detector)
        script_e = ctx.detector(self.script_e_detector)
        ctx.broadcast("LABELS", identity=ctx.identity, labels=tuple(hsigma.h_labels))

        candidates = []
        for label, multiset in hsigma.h_quora:
            if not isinstance(multiset, IdentityMultiset):
                multiset = IdentityMultiset(multiset)
            if self._multiset_has_homonyms(multiset):
                raise ReductionError(
                    "the HΣ → Σ reduction is only defined for systems with unique "
                    f"identifiers; quorum {sorted(map(repr, multiset))} has homonyms"
                )
            known = self._idents.get(label)
            if known is not None and multiset.support() <= known:
                candidates.append(multiset)
        if candidates:
            chosen = min(
                candidates,
                key=lambda m: (
                    max(script_e.rank(identity) for identity in m.support()),
                    sorted(map(repr, m.support())),
                ),
            )
            self.trusted = frozenset(chosen.support())
        if self.record_outputs and self.trusted:
            ctx.record(_TRUSTED, self.trusted)

    # ------------------------------------------------------------------
    # Task T2
    # ------------------------------------------------------------------
    def _on_labels(self, message: Message) -> None:
        identity = message["identity"]
        for label in message["labels"]:
            self._idents.setdefault(label, set()).add(identity)

    @staticmethod
    def _multiset_has_homonyms(multiset: IdentityMultiset) -> bool:
        return len(multiset.support()) != len(multiset)

    def describe(self) -> str:
        return "Figure-4 HΣ→Σ"
