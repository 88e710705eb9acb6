"""The Figure 5 relations between failure-detector classes.

Nodes are the classes of :data:`repro.detectors.CLASSES` (by their
:class:`~repro.detectors.DetectorClass` symbol); a directed edge ``X → X′``
means "class X is stronger than class X′ in the given system model" — i.e. a
detector of class X′ can be emulated from any detector of class X.  Edges carry
the system model in which the relation holds, the paper item (theorem, lemma,
observation, or prior work) establishing it, and, for the relations this
paper proves, the rows of :data:`~repro.reductions.REDUCTIONS` that implement
the emulation — those edges are derived from the table, not restated.

The edges let experiments ask reachability questions ("can HΩ be obtained
from AP in an anonymous asynchronous system?"); E3 runs every row of the table
over its source rows' oracles and judges it by its target row's axioms.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..detectors.table import CLASSES, DetectorClass
from .table import ANY_MODEL, REDUCTIONS

__all__ = ["Relation", "paper_relations", "is_stronger", "equivalent_classes"]


@dataclass(frozen=True)
class Relation:
    """One "stronger than" edge of Figure 5."""

    source: DetectorClass
    target: DetectorClass
    model: str
    established_by: str
    implemented_by: tuple[str, ...] = ()


def paper_relations() -> tuple[Relation, ...]:
    """All the relations shown in (or trivially implied by) Figure 5."""
    C = DetectorClass
    # --- Relations proven in this paper: one edge per arrow of the table ----
    proven: dict[tuple, list] = {}
    for row in REDUCTIONS.values():
        arrow = CLASSES[row.sources[0]].cls, CLASSES[row.target].cls, row.model
        proven.setdefault(arrow, []).append(row)
    return (
        *(
            Relation(
                *arrow, " / ".join(row.paper_item for row in rows), tuple(row.name for row in rows)
            )
            for arrow, rows in proven.items()
        ),
        # --- Relations from Bonnet & Raynal recalled by the paper ---------
        Relation(C.SIGMA, C.A_SIGMA, "AS", "Bonnet & Raynal [6]"),
        Relation(C.A_SIGMA, C.SIGMA, "AS", "Bonnet & Raynal [6]"),
        Relation(C.AP, C.A_SIGMA, "AAS", "Bonnet & Raynal [6]"),
        # --- Trivial relations (dotted arrows) -----------------------------
        Relation(C.P, C.DIAMOND_P, ANY_MODEL, "trivial (P is stronger than ◇P̄)"),
        Relation(C.DIAMOND_P, C.OMEGA, "AS", "trivial (leader = min trusted id)"),
        Relation(C.DIAMOND_P, C.DIAMOND_HP, "AS",
                 "trivial (with unique ids a set is a multiset)"),
        Relation(C.DIAMOND_HP, C.DIAMOND_P, "AS",
                 "trivial (with unique ids a multiset is a set)"),
        Relation(C.H_OMEGA, C.OMEGA, "AS", "trivial (with unique ids HΩ and Ω coincide)"),
        Relation(C.OMEGA, C.H_OMEGA, "AS", "trivial (with unique ids HΩ and Ω coincide)"),
    )


def _obtainable_from(source: DetectorClass, model: str | None) -> set[DetectorClass]:
    """Every class reachable from ``source`` over the relations holding in
    ``model`` (those tagged ``ANY_MODEL`` hold in every model)."""
    edges = [
        (relation.source, relation.target)
        for relation in paper_relations()
        if model is None or relation.model in (model, ANY_MODEL)
    ]
    reached, frontier = {source}, [source]
    while frontier:
        here = frontier.pop()
        for origin, target in edges:
            if origin == here and target not in reached:
                reached.add(target)
                frontier.append(target)
    return reached


def is_stronger(
    source: DetectorClass, target: DetectorClass, *, model: str | None = None
) -> bool:
    """Return ``True`` when ``target`` can be obtained from ``source`` (transitively)."""
    return target in _obtainable_from(source, model)


def equivalent_classes(*, model: str | None = None) -> list[frozenset]:
    """Groups of classes that are mutually obtainable in the given model.

    In ``AS`` (unique identifiers) this recovers Corollary 1: Σ, HΣ, and AΣ
    form one equivalence class.
    """
    obtainable = {symbol: _obtainable_from(symbol, model) for symbol in DetectorClass}
    groups: list[frozenset] = []
    for symbol in DetectorClass:
        group = frozenset(
            other for other in obtainable[symbol] if symbol in obtainable[other]
        )
        if len(group) > 1 and group not in groups:
            groups.append(group)
    return groups
