"""Oracles for the homonymous failure-detector classes ◇HP, HΩ, and HΣ.

These are the classes the paper introduces.  The oracles realise them from the
failure pattern so consensus algorithms can be evaluated in ``HAS[HΩ]`` and
``HAS[HΩ, HΣ]`` exactly as the paper states them; the message-passing
*implementations* of the same classes live in :mod:`repro.algorithms`.
"""

from __future__ import annotations

from ..identity import Identity, IdentityMultiset, ProcessId
from ..sim.system import DetectorServices
from .base import OracleDetector, stable_draw
from .views import DiamondHPView, HOmegaView, HSigmaView

__all__ = ["DiamondHPOracle", "HOmegaOracle", "HSigmaOracle"]

#: Label whose quorum is the whole membership (safe pre-stabilization output).
_LABEL_ALL = "hΣ:all"
#: Label whose quorum is the correct set (the liveness-providing pairs).
_LABEL_CORRECT = "hΣ:correct"


class DiamondHPOracle(OracleDetector):
    """◇HP: ``h_trusted`` eventually equals the multiset ``I(Correct)``.

    Before stabilization the oracle trusts every currently alive process,
    which over-approximates ``I(Correct)`` in the multiset-inclusion order.
    """

    def view_for(self, process: ProcessId) -> DiamondHPView:
        def trust_alive() -> IdentityMultiset:
            return self.membership.identity_multiset(
                sorted(self.pattern.alive_at(self.clock.now))
            )

        return DiamondHPView(self.reader(self.correct_identities, trust_alive))


class HOmegaOracle(OracleDetector):
    """HΩ: eventually every correct process sees the same correct identifier
    together with its multiplicity among the correct processes.

    The eventual leader identifier is the smallest identifier carried by a
    correct process (smallest by representation, matching the deterministic
    choice Observation 1 makes when deriving HΩ from ◇HP).  Before
    stabilization each process sees a pseudo-random identifier from ``I(Π)``
    with an arbitrary multiplicity, re-drawn every noise window, so consensus
    algorithms are exercised against multiple simultaneous self-styled
    leaders — the situation the Leaders' Coordination Phase exists for.
    """

    def eventual_leader(self) -> tuple[Identity, int]:
        """The eventual ``(h_leader, h_multiplicity)`` pair of this run."""
        correct_ids = self.correct_identities()
        leader = min(correct_ids.support(), key=repr)
        return leader, correct_ids.multiplicity(leader)

    def leader_processes(self) -> frozenset[ProcessId]:
        """The correct processes carrying the eventual leader identifier."""
        leader, _ = self.eventual_leader()
        return frozenset(
            process
            for process in self.pattern.correct
            if self.membership.identity_of(process) == leader
        )

    def view_for(self, process: ProcessId) -> HOmegaView:
        all_ids = sorted(self.membership.distinct_identities, key=repr)

        def noisy_pair(window: int) -> tuple[Identity, int]:
            draw = stable_draw(process.index, window, "hΩ")
            identity = all_ids[draw % len(all_ids)]
            multiplicity = 1 + (draw // 7) % self.membership.size
            return identity, multiplicity

        return HOmegaView(self.reader(self.eventual_leader, self.per_window(noisy_pair)))


class HSigmaOracle(OracleDetector):
    """HΣ: quorum system over identifier multisets.

    * ``h_labels``: every process always participates in the ``all`` quorum;
      correct processes additionally participate in the ``correct`` quorum
      from the stabilization time on.  Labels only ever grow (monotonicity).
    * ``h_quora``: every process always knows the pair ``(all, I(Π))``;
      from the stabilization time on it also knows ``(correct, I(Correct))``.

    Safety holds because a quorum matching ``I(Π)`` must be the whole process
    set and a quorum matching ``I(Correct)`` drawn from holders of the
    ``correct`` label must be the correct set itself — and both intersect any
    other such quorum (the correct set is non-empty).  Liveness holds because
    the ``correct`` pair names a multiset entirely covered by correct label
    holders.

    Note the oracle needs the full membership ``I(Π)`` — which an algorithm
    without membership knowledge could not know.  That is exactly why HΣ needs
    either the synchronous implementation of Figure 7 or a reduction from a
    stronger class; as an oracle it is allowed this knowledge.
    """

    def view_for(self, process: ProcessId) -> HSigmaView:
        everyone = (_LABEL_ALL, self.membership.identity_multiset())
        quora = frozenset({everyone})
        settled_quora = quora | {(_LABEL_CORRECT, self.correct_identities())}
        labels = frozenset({_LABEL_ALL})
        settled_labels = labels | {_LABEL_CORRECT} if self.pattern.is_correct(process) else labels
        return HSigmaView(
            self.reader(lambda: settled_quora, lambda: quora),
            self.reader(lambda: settled_labels, lambda: labels),
        )

    def label_holders(self, label: str) -> frozenset[ProcessId]:
        """``S(label)``: processes that ever carry ``label`` in ``h_labels``."""
        if label == _LABEL_ALL:
            return frozenset(self.membership.processes)
        if label == _LABEL_CORRECT:
            return self.pattern.correct
        return frozenset()
