"""Reductions (transformations) between failure-detector classes.

Each reduction is a process program that, given access to a detector of the
source class, emulates the output of a detector of the target class — the
standard notion of "class X is stronger than class X′" from Chandra & Toueg
that the paper uses in Section 3.3.  The emulated outputs are recorded under
the trace keys of the target class's row, so that row's axioms
(``CLASSES[target].judge``) can confirm the emulation is correct, and exposed
as views so other programs can consume them.

Implemented reductions (paper item → class):

==============================  ==============================================
Figure 1 / Theorem 1 (case 1)   :class:`SigmaToHSigmaWithMembership`
Figure 2 / Theorem 1 (case 2)   :class:`SigmaToHSigmaUnknownMembership`
Figure 4 / Theorem 2            :class:`HSigmaToSigma`
Theorem 3                       :class:`ASigmaToHSigma`
Lemma 2 / Theorem 4             :class:`APToDiamondHP`
Lemma 3 / Theorem 4             :class:`APToHSigma`
Observation 1                   :class:`DiamondHPToHOmega`
==============================  ==============================================

The Figure 5 relations themselves live in :mod:`repro.reductions.registry`.
"""

from .ap_to_homonymous import APToDiamondHP, APToHSigma
from .asigma_to_hsigma import ASigmaToHSigma
from .hsigma_to_sigma import HSigmaToSigma
from .ohp_to_homega import DiamondHPToHOmega
from .registry import Relation, equivalent_classes, is_stronger, paper_relations
from .sigma_to_hsigma import SigmaToHSigmaUnknownMembership, SigmaToHSigmaWithMembership

__all__ = [
    "APToDiamondHP",
    "APToHSigma",
    "ASigmaToHSigma",
    "DiamondHPToHOmega",
    "HSigmaToSigma",
    "Relation",
    "SigmaToHSigmaUnknownMembership",
    "SigmaToHSigmaWithMembership",
    "equivalent_classes",
    "is_stronger",
    "paper_relations",
]
