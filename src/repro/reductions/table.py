"""The table of reductions (Section 3.3; the solid arrows of Figure 5).

:data:`REDUCTIONS` is the only place a paper item is paired with a program, its
source classes and its target class: ``repro.runtime.registry`` registers each
row in ``PROGRAMS``, :func:`~repro.reductions.registry.paper_relations` derives
the proven edges from it and E3 runs every row.  What the rows say:

* **Figures 1 and 2** (Theorem 1, unique identifiers): for the current Σ quorum
  ``q`` the pair ``(q, q)`` joins ``h_quora``.  With ``I(Π)`` known (Figure 1)
  ``h_labels`` is fixed at every sub-multiset containing ``id(p)``; without it
  (Figure 2) identifiers are learnt from ``IDENT`` broadcasts and ``h_labels``
  only ever grows.
* **Figure 4** (Theorem 2, unique identifiers): Task T1 broadcasts
  ``LABELS(id(p), D.h_labels)`` and, among the pairs ``(x, m) ∈ D.h_quora``
  that are *covered* — every identifier of ``m`` announced label ``x``, which
  Task T2 keeps track of — outputs the one whose worst rank in ℰ's ``alive``
  (Definition 1, built by Figure 3 in ``AS[∅]``) is smallest.
* **Theorem 3** (anonymous): a pair ``(x, y)`` of AΣ becomes label ``x`` with
  quorum ``⊥^y``, replacing the previous pair of that label — AΣ monotonicity
  makes the new ``y`` no larger, which is HΣ's ``m′ ⊆ m``.
* **Lemmas 2 and 3** (Theorem 4, anonymous): ``h_trusted ← ⊥^anap``, which is
  ``I(Correct)`` once ``anap`` is tight; and every observed ``⊥^anap`` is both
  a label and its own quorum.
* **Observation 1**: ``h_leader`` is the smallest identifier of ``h_trusted``
  and ``h_multiplicity`` its multiplicity there; no communication.
"""

from __future__ import annotations

from ..errors import ReductionError
from ..identity import ANONYMOUS_IDENTITY, IdentityMultiset
from .base import Reduction

__all__ = ["ANY_MODEL", "REDUCTIONS"]

#: Marker for relations that hold in any of the models considered.
ANY_MODEL = "any"


def _without_homonyms(identities, what: str) -> IdentityMultiset:
    multiset = identities
    if not isinstance(identities, IdentityMultiset):
        multiset = IdentityMultiset(identities)
    if len(multiset.support()) != len(multiset):
        raise ReductionError(
            f"{what} is only defined for systems with unique identifiers; "
            f"{sorted(map(repr, multiset))} has homonyms"
        )
    return multiset


def _no_quora(program, ctx):
    return frozenset(), frozenset()


def _labels_of(known, ctx) -> frozenset:
    return frozenset(known.sub_multisets_containing(ctx.identity))


def _every_label(program, ctx):
    if program.membership.is_empty():
        raise ReductionError("Figure 1 is told I(Π): pass membership=[identifiers]")
    return frozenset(), _labels_of(_without_homonyms(program.membership, "Figure 1"), ctx)


def _add_sigma_quorum(program, ctx, sigma):
    quora, labels = program.value
    quorum = _without_homonyms(sigma.trusted, "the Σ → HΣ transformation")
    return (quora if quorum.is_empty() else quora | {(quorum, quorum)}), labels


def _announce_and_add_sigma_quorum(program, ctx, sigma):
    ctx.broadcast("IDENT_SIGMA", identity=ctx.identity)
    return _add_sigma_quorum(program, ctx, sigma)


def _learn_identity(program, ctx, message):
    known = program.heard.setdefault("IDENT_SIGMA", set())
    if message["identity"] not in known:
        known.add(message["identity"])
        program.publish(ctx, (program.value[0], _labels_of(IdentityMultiset(known), ctx)))


def _best_covered_quorum(program, ctx, hsigma, script_e):
    ctx.broadcast("LABELS", identity=ctx.identity, labels=tuple(hsigma.h_labels))
    covered = [
        quorum.support()
        for label, quorum in hsigma.h_quora
        if _without_homonyms(quorum, "the HΣ → Σ reduction").support()
        <= program.heard.get(label, frozenset())
    ]
    if not covered:
        return program.value or None  # an empty quorum is not an output of Σ
    return min(
        covered,
        key=lambda ids: (max(map(script_e.rank, ids)), sorted(map(repr, ids))),
    )


def _learn_labels(program, ctx, message):
    for label in message["labels"]:
        program.heard.setdefault(label, set()).add(message["identity"])


def _anonymous(size: int) -> IdentityMultiset:
    return IdentityMultiset.uniform(ANONYMOUS_IDENTITY, size)


def _relabel_anonymous_quora(program, ctx, asigma):
    quorum_of = dict(program.value[0])
    quorum_of.update((label, _anonymous(size)) for label, size in asigma.a_sigma)
    return frozenset(quorum_of.items()), frozenset(quorum_of)


def _add_anonymous_quorum(program, ctx, ap):
    quora, labels = program.value
    quorum = _anonymous(ap.anap)
    return quora | {(quorum, quorum)}, labels | {quorum}


def _least_trusted(program, ctx, diamond_hp):
    trusted = diamond_hp.h_trusted
    if trusted.is_empty():
        return program.value
    return trusted.min_identity(), trusted.multiplicity(trusted.min_identity())


#: The registered reductions, in Figure 5's order: the paper's seven, then
#: whatever ``repro.runtime.register_reduction`` added.
REDUCTIONS: dict[str, Reduction] = {
    row.name: row
    for row in (
        Reduction(
            "sigma_to_hsigma_known", "Figure 1 (Theorem 1.1)", "AS", ("Sigma",), "HSigma",
            step=_add_sigma_quorum, initial=_every_label,
            note="known membership", knows_membership=True,
        ),
        Reduction(
            "sigma_to_hsigma", "Figure 2 (Theorem 1.2)", "AS", ("Sigma",), "HSigma",
            step=_announce_and_add_sigma_quorum, initial=_no_quora,
            handlers={"IDENT_SIGMA": _learn_identity}, note="unknown membership",
        ),
        Reduction(
            "hsigma_to_sigma", "Figure 4 (Theorem 2)", "AS", ("HSigma", "ScriptE"), "Sigma",
            step=_best_covered_quorum, initial=lambda program, ctx: frozenset(),
            handlers={"LABELS": _learn_labels}, note="uses ℰ",
        ),
        Reduction(
            "asigma_to_hsigma", "Theorem 3", "AAS", ("ASigma",), "HSigma",
            step=_relabel_anonymous_quora, initial=_no_quora,
        ),
        Reduction(
            "ap_to_ohp", "Lemma 2 (Theorem 4)", "AAS", ("AP",), "DiamondHP",
            step=lambda program, ctx, ap: _anonymous(ap.anap),
            initial=lambda program, ctx: IdentityMultiset(),
        ),
        Reduction(
            "ap_to_hsigma", "Lemma 3 (Theorem 4)", "AAS", ("AP",), "HSigma",
            step=_add_anonymous_quorum, initial=_no_quora,
        ),
        Reduction(
            "ohp_to_homega", "Observation 1", ANY_MODEL, ("DiamondHP",), "HOmega",
            step=_least_trusted, initial=lambda program, ctx: (ctx.identity, 1),
        ),
    )
}  # fmt: skip
