"""The consensus family: one row per algorithm over the shared round skeleton.

``registry name → (leader rule, quorum rule, coordination wait)``.  The paper's
two algorithms are the HΩ rows; the abstract's "unique identifiers and
anonymous systems are extreme cases" gives the Ω / AΩ rows, and Section 5.3's
closing remark — Figure 9 "can be easily transformed into an algorithm that
solves consensus in AAS[AΩ, AΣ]" by dropping the coordination phase and
swapping the detectors — gives the last one.  Everything a row needs to state
about itself (which detectors it queries, whether it needs ``t < n/2``, which
homonymy extreme it is defined at) follows from its two rules; see
:meth:`~repro.consensus.base.ConsensusProgram.requirements`.
"""

from __future__ import annotations

from .base import ConsensusProgram
from .rules import A_OMEGA, H_OMEGA, OMEGA, ASigmaQuorum, HSigmaQuorum, MajorityQuorum

__all__ = [
    "FAMILY",
    "AnonymousAOmegaASigmaConsensus",
    "AnonymousAOmegaConsensus",
    "ClassicalOmegaConsensus",
    "HOmegaHSigmaConsensus",
    "HOmegaMajorityConsensus",
    "NoCoordinationConsensus",
]


class HOmegaMajorityConsensus(ConsensusProgram):
    """Figure 8: consensus in ``HAS[t < n/2, HΩ]`` (``n`` known, membership unknown)."""

    leader_rule, quorum_rule, use_coordination_phase = H_OMEGA, MajorityQuorum, True
    paper_item = "Figure 8 (Theorem 7)"
    description = "Figure-8 consensus (HΩ, majority)"


class HOmegaHSigmaConsensus(ConsensusProgram):
    """Figure 9: consensus in ``HAS[HΩ, HΣ]`` (any number of crashes, ``n`` unknown)."""

    leader_rule, quorum_rule, use_coordination_phase = H_OMEGA, HSigmaQuorum, True
    paper_item = "Figure 9 (Theorem 8)"
    description = "Figure-9 consensus (HΩ + HΣ)"


class NoCoordinationConsensus(ConsensusProgram):
    """Figure 8 without the Leaders' Coordination Phase (the E7 ablation only).

    The paper presents the coordination phase as the main change needed to move
    from the anonymous AΩ algorithm to the homonymous HΩ one: without it,
    several homonymous leaders may keep broadcasting *different* estimates in
    Phase 0, non-leaders adopt whichever they hear first, Phase 1 then fails to
    gather a majority for a single value, and the round ends undecided —
    potentially forever.
    """

    leader_rule, quorum_rule, use_coordination_phase = H_OMEGA, MajorityQuorum, False
    paper_item = "Figure 8 ablation (E7)"
    description = "Ablation: Figure-8 without Leaders' Coordination Phase"


class ClassicalOmegaConsensus(ConsensusProgram):
    """What Figure 8 degenerates to when every identifier is distinct.

    Ω elects a single correct leader, every multiplicity is 1, and the
    coordination wait would be a no-op (a leader only has to hear its own
    ``COORD``); the row drops it to match the classical algorithm exactly.
    """

    leader_rule, quorum_rule, use_coordination_phase = OMEGA, MajorityQuorum, False
    paper_item = "classical Ω baseline"
    description = "Baseline consensus (Ω, unique ids, majority)"


class AnonymousAOmegaConsensus(ConsensusProgram):
    """The Bonnet–Raynal-style anonymous algorithm Figure 8 was derived from.

    The leader question is answered by the boolean AΩ flag and there is no
    coordination phase; Phase 0 onwards is Figure 8's.
    """

    leader_rule, quorum_rule, use_coordination_phase = A_OMEGA, MajorityQuorum, False
    paper_item = "Bonnet–Raynal AΩ baseline"
    description = "Baseline consensus (AΩ, anonymous, majority)"


class AnonymousAOmegaASigmaConsensus(ConsensusProgram):
    """Figure 9's anonymous instance: consensus in ``AAS[AΩ, AΣ]`` (Section 5.3).

    Quorums are assembled by *counting* messages whose senders carry the pair's
    label.  No experiment dispatches this row; ``tests/test_consensus_family.py``
    and ``tests/test_consensus_anonymous_asigma.py`` are what exercise it.
    """

    leader_rule, quorum_rule, use_coordination_phase = A_OMEGA, ASigmaQuorum, False
    paper_item = "Figure 9 anonymous instance"
    description = "Baseline consensus (AΩ + AΣ, anonymous, any number of crashes)"


#: Registry name → row.  ``repro.runtime.registry`` registers exactly these.
FAMILY: dict[str, type[ConsensusProgram]] = {
    "homega_majority": HOmegaMajorityConsensus,
    "homega_hsigma": HOmegaHSigmaConsensus,
    "no_coordination": NoCoordinationConsensus,
    "classical_omega": ClassicalOmegaConsensus,
    "anonymous_aomega": AnonymousAOmegaConsensus,
    "aomega_asigma": AnonymousAOmegaASigmaConsensus,
}
