"""Theorem 1: building HΣ from Σ in a system with unique identifiers.

Two variants, exactly as in the paper:

* **Figure 1** (:class:`SigmaToHSigmaWithMembership`): the membership
  ``I(Π)`` is known initially, so ``h_labels`` can be set once to every
  sub-multiset of ``I(Π)`` containing the process's own identifier and never
  changed.  No communication is needed.
* **Figure 2** (:class:`SigmaToHSigmaUnknownMembership`): the membership is
  learned by exchanging ``IDENT`` messages; ``h_labels`` is recomputed as the
  identifiers become known, and therefore only ever grows.

In both variants the quorum pairs are ``(q, q)`` where ``q`` is the current
value of the underlying Σ detector's ``trusted`` set.
"""

from __future__ import annotations

from ..detectors.table import CLASSES
from ..detectors.views import HSigmaView
from ..errors import ReductionError
from ..identity import IdentityMultiset
from ..sim.message import Message
from ..sim.process import ProcessContext
from .base import PeriodicReductionProgram

__all__ = ["SigmaToHSigmaWithMembership", "SigmaToHSigmaUnknownMembership"]

#: The trace keys of the emulated class.
_H_QUORA, _H_LABELS = CLASSES["HSigma"].keys


class _SigmaToHSigmaBase(PeriodicReductionProgram):
    """Shared state and recording logic of the two Figure 1/2 variants."""

    def __init__(self, *, source_detector: str = "Sigma", **kwargs) -> None:
        super().__init__(source_detector=source_detector, **kwargs)
        self.h_labels: frozenset = frozenset()
        self.h_quora: frozenset = frozenset()

    def emulated_view(self) -> HSigmaView:
        return HSigmaView(lambda: (self.h_quora, self.h_labels))

    def _append_quorum_from_sigma(self, ctx: ProcessContext) -> None:
        trusted = ctx.detector(self.source_detector).trusted
        quorum = IdentityMultiset(trusted)
        if len(quorum.support()) != len(quorum):
            raise ReductionError(
                "the Σ → HΣ transformation is only defined for systems with unique "
                f"identifiers; the Σ quorum {sorted(map(repr, trusted))} has homonyms"
            )
        if not quorum.is_empty():
            self.h_quora = self.h_quora | {(quorum, quorum)}

    def _record(self, ctx: ProcessContext) -> None:
        if self.record_outputs:
            ctx.record(_H_QUORA, self.h_quora)
            ctx.record(_H_LABELS, self.h_labels)


class SigmaToHSigmaWithMembership(_SigmaToHSigmaBase):
    """Figure 1: the membership ``I(Π)`` is known initially."""

    def __init__(self, membership_identities: IdentityMultiset, **kwargs) -> None:
        super().__init__(**kwargs)
        if len(membership_identities.support()) != len(membership_identities):
            raise ReductionError(
                "Figure 1 is only defined for systems with unique identifiers"
            )
        self._membership_identities = membership_identities

    def on_setup(self, ctx: ProcessContext) -> None:
        # Line 2: h_labels ← {s : (s ⊆ I(Π)) ∧ (id(p) ∈ s)}, fixed forever.
        self.h_labels = frozenset(
            self._membership_identities.sub_multisets_containing(ctx.identity)
        )

    def refresh(self, ctx: ProcessContext) -> None:
        self._append_quorum_from_sigma(ctx)
        self._record(ctx)

    def describe(self) -> str:
        return "Figure-1 Σ→HΣ (known membership)"


class SigmaToHSigmaUnknownMembership(_SigmaToHSigmaBase):
    """Figure 2: the membership is learned through ``IDENT`` broadcasts."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._mship: set = set()

    def on_setup(self, ctx: ProcessContext) -> None:
        ctx.on("IDENT_SIGMA", lambda msg: self._on_ident(ctx, msg))

    def refresh(self, ctx: ProcessContext) -> None:
        # Task T1: broadcast one's identifier and fold the Σ quorum into h_quora.
        ctx.broadcast("IDENT_SIGMA", identity=ctx.identity)
        self._append_quorum_from_sigma(ctx)
        self._record(ctx)

    def _on_ident(self, ctx: ProcessContext, message: Message) -> None:
        # Task T2: learn an identifier and rebuild h_labels from the known membership.
        identity = message["identity"]
        if identity in self._mship:
            return
        self._mship.add(identity)
        known = IdentityMultiset(self._mship)
        self.h_labels = frozenset(known.sub_multisets_containing(ctx.identity))
        self._record(ctx)

    def describe(self) -> str:
        return "Figure-2 Σ→HΣ (unknown membership)"
