"""Oracles for the classical failure-detector classes (unique identifiers).

These classes are defined for systems where every process has its own
identifier (the paper's ``AS[∅]`` model).  The oracles check that assumption
at construction time: handing them a homonymous membership is almost always a
configuration bug, because the class definitions talk about sets of
identifiers and silently collapse homonyms.
"""

from __future__ import annotations

from ..errors import DetectorError
from ..identity import ProcessId
from ..sim.system import DetectorServices
from .base import OracleDetector, stable_draw
from .views import DiamondPView, OmegaView, SigmaView

__all__ = ["PerfectOracle", "DiamondPOracle", "OmegaOracle", "SigmaOracle"]


class _UniqueIdOracle(OracleDetector):
    """Base for oracles whose class is only defined with unique identifiers."""

    def __init__(self, services: DetectorServices, **kwargs) -> None:
        if not services.membership.is_uniquely_identified:
            raise DetectorError(
                f"{type(self).__name__} is only defined for systems with unique "
                "identifiers; the membership has homonyms"
            )
        super().__init__(services, **kwargs)

    def _identities(self, members) -> frozenset:
        return frozenset(self.membership.identity_of(other) for other in members)


class PerfectOracle(_UniqueIdOracle):
    """A perfect failure detector ``P``: suspects exactly the crashed processes.

    ``P`` itself is not used by the paper's algorithms, but it is a convenient
    strongest-possible baseline for sanity checks and for building other
    oracles in tests.
    """

    def view_for(self, process: ProcessId) -> DiamondPView:
        def read_suspected() -> frozenset:
            now = self.clock.now
            return frozenset(
                self.membership.identity_of(other)
                for other in self.membership.processes
                if not self.pattern.is_alive_at(other, now)
            )

        return DiamondPView(read_suspected)


class DiamondPOracle(_UniqueIdOracle):
    """◇P̄ (the complement of ◇P): ``trusted`` eventually equals the correct ids.

    Before stabilization it trusts every process that is still alive, which is
    a superset of the correct processes — the typical transient behaviour of a
    real eventually perfect detector.
    """

    def view_for(self, process: ProcessId) -> DiamondPView:
        return DiamondPView(
            self.reader(
                lambda: self._identities(self.pattern.correct),
                lambda: self._identities(self.pattern.alive_at(self.clock.now)),
            )
        )


class OmegaOracle(_UniqueIdOracle):
    """Ω: eventually the same correct identifier at every process.

    Before stabilization, each process sees a leader picked pseudo-randomly
    from the whole membership, re-drawn every noise window, so algorithms are
    exercised against disagreeing and changing leaders.
    """

    def __init__(self, services: DetectorServices, **kwargs) -> None:
        kwargs.setdefault("noise_period", None)
        super().__init__(services, **kwargs)

    def _eventual_leader(self):
        correct_ids = sorted(
            (self.membership.identity_of(process) for process in self.pattern.correct),
            key=repr,
        )
        return correct_ids[0]

    def view_for(self, process: ProcessId) -> OmegaView:
        all_ids = sorted(
            (self.membership.identity_of(other) for other in self.membership.processes),
            key=repr,
        )

        def noisy_leader(window: int):
            return all_ids[stable_draw(process.index, window, "Ω") % len(all_ids)]

        return OmegaView(self.reader(self._eventual_leader, self.per_window(noisy_leader)))


class SigmaOracle(_UniqueIdOracle):
    """Σ: quorums that always intersect and eventually contain only correct ids.

    Before stabilization every process's quorum is the full membership (which
    trivially intersects everything); afterwards it is exactly the correct
    set.  Both phases therefore intersect pairwise at all times, as the class
    requires, because the correct set is non-empty and included in the
    membership.
    """

    def view_for(self, process: ProcessId) -> SigmaView:
        everyone = self.membership.distinct_identities
        return SigmaView(
            self.reader(lambda: self._identities(self.pattern.correct), lambda: everyone)
        )
