"""Reductions (transformations) between failure-detector classes.

Each reduction is a process program that, given access to detectors of its
source classes, emulates the output of a detector of its target class — the
standard notion of "class X is stronger than class X′" from Chandra & Toueg
that the paper uses in Section 3.3.  The emulated outputs are recorded under
the trace keys of the target class's row, so that row's axioms
(``CLASSES[target].judge``) can confirm the emulation is correct, and exposed
as a view so other programs can consume them.

A reduction is a row of :data:`REDUCTIONS` (:mod:`repro.reductions.table`) run
by the one :class:`ReductionProgram`; by ``PROGRAMS`` name it is what
``scenario().program(name)`` selects.  Paper item — name: arrow.

{rows}

The Figure 5 relations themselves live in :mod:`repro.reductions.registry`.
"""

from .base import Reduction, ReductionProgram
from .registry import Relation, equivalent_classes, is_stronger, paper_relations
from .table import ANY_MODEL, REDUCTIONS

__doc__ = __doc__.format(
    rows="\n".join(
        f"* {row.paper_item} — ``{row.name}``: {row.label}" for row in REDUCTIONS.values()
    )
)

__all__ = [
    "ANY_MODEL",
    "REDUCTIONS",
    "Reduction",
    "ReductionProgram",
    "Relation",
    "equivalent_classes",
    "is_stronger",
    "paper_relations",
]
