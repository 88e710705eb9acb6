"""Per-process query views of failure detectors.

A *view* is the object a process's algorithm holds when the system is enriched
with a failure detector: it exposes exactly the variables the class definition
gives that process (``h_leader`` and ``h_multiplicity`` for HΩ, ``h_quora``
and ``h_labels`` for HΣ, and so on) and nothing else.

Views are deliberately thin: each is constructed from one reader callable, so
the same view types serve both the ground-truth oracles and the
message-passing implementations/reductions (whose views read the emulating
program's state).  The two-variable classes (HΩ, HΣ) read one pair, so both
variables of one query belong to the same instant.
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..identity import Identity, IdentityMultiset

__all__ = [
    "PerfectView",
    "OmegaView",
    "DiamondPView",
    "SigmaView",
    "ScriptEView",
    "APView",
    "AOmegaView",
    "ASigmaView",
    "DiamondHPView",
    "HOmegaView",
    "HSigmaView",
]

#: A quorum label.  Labels are opaque hashable values; the HΣ implementation of
#: Figure 7 uses identifier multisets themselves as labels.
Label = Hashable


class PerfectView:
    """P: the set of identifiers suspected to have crashed."""

    def __init__(self, read_suspected: Callable[[], frozenset]) -> None:
        self._read_suspected = read_suspected

    @property
    def suspected(self) -> frozenset:
        """The identifiers this process currently suspects."""
        return self._read_suspected()


class OmegaView:
    """Ω: a single eventually-agreed identifier of a correct process."""

    def __init__(self, read_leader: Callable[[], Identity]) -> None:
        self._read_leader = read_leader

    @property
    def leader(self) -> Identity:
        """The current leader estimate of this process."""
        return self._read_leader()


class DiamondPView:
    """◇P̄ (complement of ◇P): the set of identifiers trusted to be correct."""

    def __init__(self, read_trusted: Callable[[], frozenset]) -> None:
        self._read_trusted = read_trusted

    @property
    def trusted(self) -> frozenset:
        """The identifiers this process currently trusts."""
        return self._read_trusted()


class SigmaView:
    """Σ: live, always-intersecting quorums of identifiers."""

    def __init__(self, read_trusted: Callable[[], frozenset]) -> None:
        self._read_trusted = read_trusted

    @property
    def trusted(self) -> frozenset:
        """The current quorum of this process."""
        return self._read_trusted()


class ScriptEView:
    """ℰ (Definition 1): a ranked sequence of identifiers."""

    def __init__(self, read_alive: Callable[[], tuple]) -> None:
        self._read_alive = read_alive

    @property
    def alive(self) -> tuple:
        """The current ranked sequence (position 0 is rank 1)."""
        return self._read_alive()

    def rank(self, identity: Identity) -> float:
        """``rank(i, alive)`` — positions start at 1; absent ids rank ``inf``."""
        sequence = self.alive
        try:
            return sequence.index(identity) + 1
        except ValueError:
            return float("inf")


class APView:
    """AP: an eventually tight upper bound on the number of alive processes."""

    def __init__(self, read_anap: Callable[[], int]) -> None:
        self._read_anap = read_anap

    @property
    def anap(self) -> int:
        """The current upper bound."""
        return self._read_anap()


class AOmegaView:
    """AΩ: a boolean that is eventually true at exactly one correct process."""

    def __init__(self, read_flag: Callable[[], bool]) -> None:
        self._read_flag = read_flag

    @property
    def a_leader(self) -> bool:
        """Whether this process currently considers itself the leader."""
        return self._read_flag()


class ASigmaView:
    """AΣ: a set of ``(label, quorum_size)`` pairs."""

    def __init__(self, read_pairs: Callable[[], frozenset]) -> None:
        self._read_pairs = read_pairs

    @property
    def a_sigma(self) -> frozenset:
        """The current ``(label, size)`` pairs of this process."""
        return self._read_pairs()


class DiamondHPView:
    """◇HP: a multiset that eventually equals ``I(Correct)``."""

    def __init__(self, read_trusted: Callable[[], IdentityMultiset]) -> None:
        self._read_trusted = read_trusted

    @property
    def h_trusted(self) -> IdentityMultiset:
        """The multiset of identifiers this process currently trusts."""
        return self._read_trusted()


class HOmegaView:
    """HΩ: an eventually common correct identifier with its correct multiplicity."""

    def __init__(self, read_pair: Callable[[], tuple[Identity, int]]) -> None:
        self._read_pair = read_pair

    @property
    def h_leader(self) -> Identity:
        """The current leader identifier."""
        return self._read_pair()[0]

    @property
    def h_multiplicity(self) -> int:
        """The multiplicity associated with the current leader identifier."""
        return self._read_pair()[1]

    def read(self) -> tuple[Identity, int]:
        """Atomically read ``(h_leader, h_multiplicity)``."""
        return self._read_pair()


class HSigmaView:
    """HΣ: quorum descriptions (``h_quora``) and quorum participation (``h_labels``)."""

    def __init__(self, read_pair: Callable[[], tuple[frozenset, frozenset]]) -> None:
        self._read_pair = read_pair

    @property
    def h_quora(self) -> frozenset:
        """The current set of ``(label, IdentityMultiset)`` pairs."""
        return self._read_pair()[0]

    @property
    def h_labels(self) -> frozenset:
        """The labels whose quorums this process participates in."""
        return self._read_pair()[1]
