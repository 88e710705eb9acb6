"""Oracles for the anonymous failure-detector classes AP, AΩ, and AΣ.

Anonymous classes make no reference to identifiers at all, so these oracles
work for any membership (the paper's ``AAS[∅]`` systems are homonymous systems
where every identifier is the default ``⊥``; the class definitions themselves
never look at identifiers).
"""

from __future__ import annotations

from ..identity import ProcessId
from ..sim.system import DetectorServices
from .base import OracleDetector, stable_draw
from .views import AOmegaView, APView, ASigmaView

__all__ = ["APOracle", "AOmegaOracle", "ASigmaOracle"]

#: Label shared by every process before stabilization (quorum = everyone).
_LABEL_ALL = "aΣ:all"
#: Label held only by correct processes (quorum = the correct set).
_LABEL_CORRECT = "aΣ:correct"


class APOracle(OracleDetector):
    """AP: an upper bound on the number of alive processes, eventually tight.

    The oracle returns the exact number of currently alive processes, which is
    always an upper bound on itself (safety) and equals ``|Correct|`` once the
    last faulty process has crashed (liveness).  A pessimism margin can be
    added to model a slower real implementation; the margin decays to zero at
    the stabilization time.
    """

    def __init__(self, services: DetectorServices, *, pessimism: int = 0, **kwargs) -> None:
        super().__init__(services, **kwargs)
        self._pessimism = max(0, int(pessimism))

    def view_for(self, process: ProcessId) -> APView:
        def read_anap() -> int:
            alive = len(self.pattern.alive_at(self.clock.now))
            if self.stabilized:
                # Never dip below the number of currently alive processes:
                # safety must hold even if the caller configured a
                # stabilization time earlier than the last crash.
                return max(len(self.pattern.correct), alive)
            return min(self.membership.size, alive + self._pessimism)

        return APView(read_anap)


class AOmegaOracle(OracleDetector):
    """AΩ: eventually exactly one correct process has its flag set.

    The elected process is the correct process with the smallest internal
    index — a choice no real anonymous algorithm could make (the class is not
    realistic, as the paper recalls), which is precisely why it has to be an
    oracle.  Before stabilization the flags are pseudo-random, so several or
    zero processes may consider themselves leader.
    """

    def _eventual_leader_process(self) -> ProcessId:
        return min(self.pattern.correct)

    def view_for(self, process: ProcessId) -> AOmegaView:
        def noisy_flag(window: int) -> bool:
            return bool(stable_draw(process.index, window, "aΩ") % 2)

        return AOmegaView(
            self.reader(
                lambda: process == self._eventual_leader_process(), self.per_window(noisy_flag)
            )
        )


class ASigmaOracle(OracleDetector):
    """AΣ: intersecting quorums described as ``(label, size)`` pairs.

    * Before stabilization every process outputs ``(all, n)`` — the quorum of
      all processes, which intersects everything.
    * From stabilization on, correct processes additionally output
      ``(correct, |Correct|)``, and only correct processes ever carry that
      label, so any two full-size quorums named by it are the correct set
      itself.

    Both quorum families pairwise intersect, and the liveness pair
    ``(correct, |Correct|)`` is satisfiable by correct processes only.
    """

    def view_for(self, process: ProcessId) -> ASigmaView:
        pairs = settled_pairs = frozenset({(_LABEL_ALL, self.membership.size)})
        if self.pattern.is_correct(process):
            settled_pairs = pairs | {(_LABEL_CORRECT, len(self.pattern.correct))}
        return ASigmaView(self.reader(lambda: settled_pairs, lambda: pairs))

    def label_holders(self, label: str) -> frozenset[ProcessId]:
        """``S_A(label)``: the processes that may ever output a pair with ``label``.

        Exposed for the AΣ → HΣ reduction and for the property checkers.
        """
        if label == _LABEL_ALL:
            return frozenset(self.membership.processes)
        if label == _LABEL_CORRECT:
            return self.pattern.correct
        return frozenset()
