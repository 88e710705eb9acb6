"""Process identities and identity multisets for homonymous systems.

The paper distinguishes between a *process* ``p ∈ Π`` (a formalisation tool the
algorithms never see) and its *identifier* ``id(p)`` (what the algorithms do
see).  In a homonymous system several processes may carry the same identifier,
so the natural aggregate of identifiers of a set of processes ``S`` is the
multiset ``I(S) = {id(p) : p ∈ S}``.

This module provides:

* :class:`ProcessId` — the internal, globally unique handle of a process
  (``p``).  It exists only inside the simulator and the property checkers;
  algorithm code must never read it.
* ``Identity`` — the identifier ``id(p)`` visible to algorithms.  Identifiers
  are ordinary hashable, totally ordered Python values (we use ``str`` and
  ``int`` in practice).
* :class:`IdentityMultiset` — an immutable multiset (bag) of identifiers with
  the operations the paper uses: multiplicity, inclusion (``⊆``), union,
  intersection, and sub-multiset enumeration.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Hashable, Iterable, Iterator, Mapping

__all__ = ["ProcessId", "Identity", "IdentityMultiset", "ANONYMOUS_IDENTITY"]


#: The "default identifier" ``⊥`` used when modelling anonymous systems as
#: homonymous systems in which every process carries the same identifier.
ANONYMOUS_IDENTITY: str = "⊥"  # ⊥

#: Type alias for identifiers visible to algorithms.
Identity = Hashable


class ProcessId:
    """Internal, unique handle of a process ``p ∈ Π``.

    The integer ``index`` is unique within a system.  Algorithms must not use
    it: it exists so the simulator, the failure patterns, and the property
    checkers can talk about *processes* rather than (possibly shared)
    identifiers.

    Implemented as an immutable ``__slots__`` class with hand-written
    comparisons and ``hash(p) == p.index``: process ids key every delivery
    callback lookup and sort on the simulator's hot path, where the generated
    dataclass tuple machinery measurably dominated.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        object.__setattr__(self, "index", index)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ProcessId is immutable; cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is ProcessId:
            return self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return self.index

    def __lt__(self, other: "ProcessId") -> bool:
        if other.__class__ is ProcessId:
            return self.index < other.index
        return NotImplemented

    def __le__(self, other: "ProcessId") -> bool:
        if other.__class__ is ProcessId:
            return self.index <= other.index
        return NotImplemented

    def __gt__(self, other: "ProcessId") -> bool:
        if other.__class__ is ProcessId:
            return self.index > other.index
        return NotImplemented

    def __ge__(self, other: "ProcessId") -> bool:
        if other.__class__ is ProcessId:
            return self.index >= other.index
        return NotImplemented

    def __reduce__(self):
        return (ProcessId, (self.index,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"p{self.index}"


class IdentityMultiset:
    """An immutable multiset (bag) of process identifiers.

    Instances behave like the paper's ``I(S)``: the same identifier may appear
    several times, ``|I(S)| = |S|``, and ``mult_I(i)`` gives the multiplicity
    of identifier ``i``.

    The class is hashable and totally ordered (lexicographically over the
    sorted element sequence) so multisets can be used as message payloads,
    dictionary keys, and quorum labels — exactly how Figure 7 of the paper
    uses ``mset_p`` as both the label and the value of a quorum pair.
    """

    __slots__ = ("_counts", "_size", "_hash", "_repr")

    def __init__(self, items: Iterable[Identity] = ()) -> None:
        counts = Counter(items)
        # Freeze into a plain dict with deterministic ordering by element.
        self._counts: dict[Identity, int] = {
            key: counts[key] for key in sorted(counts, key=_sort_key)
        }
        self._size: int = sum(self._counts.values())
        self._hash: int | None = None
        self._repr: str | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_counts(cls, counts: Mapping[Identity, int]) -> "IdentityMultiset":
        """Build a multiset from an ``{identity: multiplicity}`` mapping.

        Zero and negative multiplicities are rejected rather than silently
        dropped, because they almost always indicate a bookkeeping bug in the
        caller.
        """
        for identity, count in counts.items():
            if count <= 0:
                raise ValueError(
                    f"multiplicity of {identity!r} must be positive, got {count}"
                )
        expanded: list[Identity] = []
        for identity, count in counts.items():
            expanded.extend([identity] * count)
        return cls(expanded)

    @classmethod
    def singleton(cls, identity: Identity, count: int = 1) -> "IdentityMultiset":
        """Return a multiset holding ``count`` copies of ``identity``."""
        return cls.from_counts({identity: count})

    @classmethod
    def uniform(cls, identity: Identity, count: int) -> "IdentityMultiset":
        """Return ``⊥^count``-style multisets (``count`` copies of one id)."""
        if count == 0:
            return cls()
        return cls.from_counts({identity: count})

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Identity]:
        for identity, count in self._counts.items():
            for _ in range(count):
                yield identity

    def __contains__(self, identity: Identity) -> bool:
        return identity in self._counts

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IdentityMultiset):
            return self._counts == other._counts
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self._counts.items()))
        return self._hash

    def __lt__(self, other: "IdentityMultiset") -> bool:
        if not isinstance(other, IdentityMultiset):
            return NotImplemented
        return self._ordering_key() < other._ordering_key()

    def __le__(self, other: "IdentityMultiset") -> bool:
        if not isinstance(other, IdentityMultiset):
            return NotImplemented
        return self._ordering_key() <= other._ordering_key()

    def __repr__(self) -> str:
        """``IdentityMultiset({'a', 'a', 'b'})`` — elements in sorted order.

        The exact text is load-bearing, not cosmetic: quorum pairs and leader
        candidates are ordered with ``key=repr`` and ``stable_draw`` hashes
        ``repr(parts)``, so the determinism digests depend on it.  Computed
        once per (immutable) instance, like the hash.
        """
        if self._repr is None:
            inner = ", ".join(repr(item) for item in self)
            self._repr = f"IdentityMultiset({{{inner}}})"
        return self._repr

    def __reduce__(self):
        # Rebuild from the elements: a cached hash is only valid in the
        # interpreter that computed it, and the cached text is derivable.
        return (IdentityMultiset, (tuple(self),))

    def _ordering_key(self) -> tuple:
        return tuple((_sort_key(identity), count) for identity, count in self._counts.items())

    # ------------------------------------------------------------------
    # Multiset queries
    # ------------------------------------------------------------------
    @property
    def counts(self) -> Mapping[Identity, int]:
        """A read-only view of the ``{identity: multiplicity}`` mapping."""
        return dict(self._counts)

    def multiplicity(self, identity: Identity) -> int:
        """Return ``mult_I(identity)`` — 0 when the identifier is absent."""
        return self._counts.get(identity, 0)

    def support(self) -> frozenset:
        """Return the *set* of distinct identifiers appearing in the bag."""
        return frozenset(self._counts)

    def is_empty(self) -> bool:
        """Return ``True`` when the multiset has no elements."""
        return self._size == 0

    def min_identity(self) -> Identity:
        """Return the smallest identifier (used for deterministic leader choice)."""
        if not self._counts:
            raise ValueError("min_identity() on an empty multiset")
        return next(iter(self._counts))

    # ------------------------------------------------------------------
    # Multiset algebra
    # ------------------------------------------------------------------
    def issubset(self, other: "IdentityMultiset") -> bool:
        """Multiset inclusion: every element appears at least as often in ``other``."""
        return all(
            count <= other.multiplicity(identity)
            for identity, count in self._counts.items()
        )

    def issuperset(self, other: "IdentityMultiset") -> bool:
        """Multiset inclusion in the other direction."""
        return other.issubset(self)

    def union(self, other: "IdentityMultiset") -> "IdentityMultiset":
        """Element-wise maximum of multiplicities."""
        merged: dict[Identity, int] = dict(self._counts)
        for identity, count in other._counts.items():
            merged[identity] = max(merged.get(identity, 0), count)
        return IdentityMultiset.from_counts(merged) if merged else IdentityMultiset()

    def sum(self, other: "IdentityMultiset") -> "IdentityMultiset":
        """Element-wise sum of multiplicities (disjoint union)."""
        merged = Counter(dict(self._counts))
        merged.update(dict(other._counts))
        return IdentityMultiset.from_counts(merged) if merged else IdentityMultiset()

    def intersection(self, other: "IdentityMultiset") -> "IdentityMultiset":
        """Element-wise minimum of multiplicities."""
        merged: dict[Identity, int] = {}
        for identity, count in self._counts.items():
            shared = min(count, other.multiplicity(identity))
            if shared > 0:
                merged[identity] = shared
        return IdentityMultiset.from_counts(merged) if merged else IdentityMultiset()

    def difference(self, other: "IdentityMultiset") -> "IdentityMultiset":
        """Element-wise truncated subtraction of multiplicities."""
        merged: dict[Identity, int] = {}
        for identity, count in self._counts.items():
            remaining = count - other.multiplicity(identity)
            if remaining > 0:
                merged[identity] = remaining
        return IdentityMultiset.from_counts(merged) if merged else IdentityMultiset()

    def add(self, identity: Identity, count: int = 1) -> "IdentityMultiset":
        """Return a new multiset with ``count`` extra copies of ``identity``."""
        if count <= 0:
            raise ValueError("count must be positive")
        return self.sum(IdentityMultiset.uniform(identity, count))

    def intersects(self, other: "IdentityMultiset") -> bool:
        """Return ``True`` when the two bags share at least one identifier."""
        smaller, larger = (self, other) if len(self._counts) <= len(other._counts) else (other, self)
        return any(identity in larger for identity in smaller._counts)

    # ------------------------------------------------------------------
    # Enumeration helpers used by the Σ→HΣ transformations and tests
    # ------------------------------------------------------------------
    def sub_multisets(self, *, nonempty: bool = True) -> Iterator["IdentityMultiset"]:
        """Yield every sub-multiset of this bag.

        The number of sub-multisets is ``∏(mult_i + 1)``; callers are expected
        to use this only for the small systems exercised in tests and in the
        Figure 1/2 label construction (``{s : s ⊆ I(Π) ∧ id(p) ∈ s}``).
        """
        identities = list(self._counts)
        ranges = [range(self._counts[identity] + 1) for identity in identities]
        for combo in itertools.product(*ranges):
            if nonempty and not any(combo):
                continue
            counts = {
                identity: count
                for identity, count in zip(identities, combo)
                if count > 0
            }
            yield IdentityMultiset.from_counts(counts) if counts else IdentityMultiset()

    def sub_multisets_containing(self, identity: Identity) -> Iterator["IdentityMultiset"]:
        """Yield the sub-multisets that contain at least one copy of ``identity``.

        This is exactly the label family ``{s : (s ⊆ I) ∧ (id(p) ∈ s)}`` used
        by the Σ → HΣ transformations (Figures 1 and 2 of the paper).
        """
        for subset in self.sub_multisets(nonempty=True):
            if identity in subset:
                yield subset


def _sort_key(identity: Identity) -> tuple[str, str]:
    """Total order over heterogeneous identifiers (sort by type name, then repr)."""
    return (type(identity).__name__, repr(identity))
