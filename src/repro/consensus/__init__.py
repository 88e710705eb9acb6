"""Consensus algorithms for homonymous systems, plus baselines and validators.

One round skeleton (:mod:`repro.consensus.base`), two small rules
(:mod:`repro.consensus.rules`), and one table of rows
(:data:`repro.consensus.family.FAMILY`).  The two algorithms of the paper's
Section 5:

* :class:`~repro.consensus.family.HOmegaMajorityConsensus` —
  Figure 8: consensus in ``HAS[t < n/2, HΩ]`` (majority of correct processes,
  ``n`` known, membership unknown).
* :class:`~repro.consensus.family.HOmegaHSigmaConsensus` —
  Figure 9: consensus in ``HAS[HΩ, HΣ]`` (any number of crashes, ``n``
  unknown).

Baselines and ablations:

* :class:`~repro.consensus.family.ClassicalOmegaConsensus` — the
  unique-identifier Ω + majority algorithm Figure 8 degenerates to when every
  identifier is distinct.
* :class:`~repro.consensus.family.AnonymousAOmegaConsensus` — the
  Bonnet–Raynal-style AΩ + majority algorithm Figure 8 was derived from.
* :class:`~repro.consensus.family.NoCoordinationConsensus` —
  Figure 8 *without* the Leaders' Coordination Phase (the paper's main
  algorithmic addition), used by the E7 ablation.
* :class:`~repro.consensus.family.AnonymousAOmegaASigmaConsensus` — the
  ``AAS[AΩ, AΣ]`` instance of Figure 9 that Section 5.3 closes with.

:mod:`repro.consensus.validator` checks Validity, Agreement, and Termination
of a run trace.
"""

from .base import ConsensusKeys, ConsensusProgram
from .factories import ConsensusFactory
from .family import (
    FAMILY,
    AnonymousAOmegaASigmaConsensus,
    AnonymousAOmegaConsensus,
    ClassicalOmegaConsensus,
    HOmegaHSigmaConsensus,
    HOmegaMajorityConsensus,
    NoCoordinationConsensus,
)
from .validator import ConsensusVerdict, validate_consensus

__all__ = [
    "FAMILY",
    "AnonymousAOmegaASigmaConsensus",
    "AnonymousAOmegaConsensus",
    "ClassicalOmegaConsensus",
    "ConsensusFactory",
    "ConsensusKeys",
    "ConsensusProgram",
    "ConsensusVerdict",
    "HOmegaHSigmaConsensus",
    "HOmegaMajorityConsensus",
    "NoCoordinationConsensus",
    "validate_consensus",
]
