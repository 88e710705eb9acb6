"""Membership descriptions and homonymy patterns.

A *membership* is the formal object ``Π`` together with the identifier map
``id(·)``.  Algorithms never receive a :class:`Membership`; they receive only
their own identifier (the "no initial knowledge of the membership" adversary).
The simulator, failure patterns, oracles, and property checkers all work in
terms of the membership.

The module also provides the identifier-assignment generators used by the
workloads: unique identifiers (classical ``AS`` systems), a single shared
identifier (anonymous ``AAS`` systems), grouped/homonymous assignments, and
random assignments from a bounded identifier domain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import ConfigurationError
from .identity import ANONYMOUS_IDENTITY, Identity, IdentityMultiset, ProcessId

__all__ = [
    "Membership",
    "unique_identities",
    "anonymous_identities",
    "grouped_identities",
    "random_identities",
    "identities_from_multiplicities",
]


@dataclass(frozen=True)
class Membership:
    """The set of processes ``Π`` and the identifier map ``id(·)``.

    ``identities`` maps every :class:`ProcessId` in the system to its
    identifier.  The mapping is total: a process without an identifier is not
    representable (the paper treats "no identity" as the default identifier).
    """

    identities: Mapping[ProcessId, Identity]
    _by_identity: Mapping[Identity, tuple[ProcessId, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.identities:
            raise ConfigurationError("a membership must contain at least one process")
        frozen = dict(self.identities)
        object.__setattr__(self, "identities", frozen)
        grouped: dict[Identity, list[ProcessId]] = {}
        for process, identity in frozen.items():
            grouped.setdefault(identity, []).append(process)
        object.__setattr__(
            self,
            "_by_identity",
            {identity: tuple(sorted(members)) for identity, members in grouped.items()},
        )
        # The ordered process tuple is read once per broadcast; sort it once.
        object.__setattr__(self, "_processes", tuple(sorted(frozen)))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, identities: Sequence[Identity]) -> "Membership":
        """Build a membership from a sequence of identifiers.

        Process ``p_i`` receives ``identities[i]``.  This is the most common
        constructor in tests and examples::

            Membership.of(["A", "A", "B"])   # the paper's running example
        """
        return cls({ProcessId(index): identity for index, identity in enumerate(identities)})

    # ------------------------------------------------------------------
    # Size and membership queries
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """``n = |Π|``."""
        return len(self.identities)

    @property
    def processes(self) -> tuple[ProcessId, ...]:
        """All processes, ordered by internal index."""
        return self._processes

    @property
    def distinct_identities(self) -> frozenset:
        """The set of distinct identifiers (``ℓ`` in the paper's notation)."""
        return frozenset(self._by_identity)

    def identity_of(self, process: ProcessId) -> Identity:
        """Return ``id(p)``."""
        try:
            return self.identities[process]
        except KeyError:
            raise ConfigurationError(f"{process!r} is not part of this membership") from None

    def processes_with_identity(self, identity: Identity) -> tuple[ProcessId, ...]:
        """Return ``P({identity})`` — the processes carrying ``identity``."""
        return self._by_identity.get(identity, ())

    def homonyms_of(self, process: ProcessId) -> tuple[ProcessId, ...]:
        """Return the processes sharing ``process``'s identifier (including itself)."""
        return self.processes_with_identity(self.identity_of(process))

    def identity_multiset(self, processes: Iterable[ProcessId] | None = None) -> IdentityMultiset:
        """Return ``I(S)`` for ``S`` = ``processes`` (default: the whole of ``Π``)."""
        if processes is None:
            processes = self.processes
        return IdentityMultiset(self.identity_of(process) for process in processes)

    def multiplicity(self, identity: Identity) -> int:
        """Return ``mult_{I(Π)}(identity)``."""
        return len(self._by_identity.get(identity, ()))

    # ------------------------------------------------------------------
    # Character of the system
    # ------------------------------------------------------------------
    @property
    def is_uniquely_identified(self) -> bool:
        """``True`` when all identifiers are distinct (classical ``AS`` system)."""
        return len(self._by_identity) == self.size

    @property
    def is_anonymous(self) -> bool:
        """``True`` when every process has the same identifier (``AAS`` system)."""
        return len(self._by_identity) == 1

    @property
    def homonymy_degree(self) -> int:
        """The largest number of processes sharing one identifier."""
        return max(len(members) for members in self._by_identity.values())

    def describe(self) -> str:
        """Short human-readable description used in experiment tables."""
        if self.is_uniquely_identified:
            flavour = "unique"
        elif self.is_anonymous:
            flavour = "anonymous"
        else:
            flavour = "homonymous"
        return (
            f"{flavour} n={self.size} "
            f"ids={len(self._by_identity)} max-mult={self.homonymy_degree}"
        )


# ----------------------------------------------------------------------
# Identifier-assignment generators (workload building blocks)
# ----------------------------------------------------------------------
def unique_identities(n: int, *, prefix: str = "id") -> Membership:
    """A classical system: ``n`` processes, all identifiers distinct."""
    _require_positive(n)
    return Membership.of([f"{prefix}{index}" for index in range(n)])


def anonymous_identities(n: int, *, identity: Identity = ANONYMOUS_IDENTITY) -> Membership:
    """An anonymous system: ``n`` processes all carrying the default identifier."""
    _require_positive(n)
    return Membership.of([identity] * n)


def grouped_identities(group_sizes: Sequence[int], *, prefix: str = "grp") -> Membership:
    """A homonymous system with explicit group sizes.

    ``grouped_identities([2, 1])`` reproduces the paper's running example: two
    processes share one identifier and a third has its own.
    """
    if not group_sizes:
        raise ConfigurationError("at least one group is required")
    identities: list[Identity] = []
    for group_index, size in enumerate(group_sizes):
        if size <= 0:
            raise ConfigurationError(f"group {group_index} has non-positive size {size}")
        identities.extend([f"{prefix}{group_index}"] * size)
    return Membership.of(identities)


def identities_from_multiplicities(multiplicities: Mapping[Identity, int]) -> Membership:
    """Build a membership directly from an ``{identity: multiplicity}`` mapping."""
    identities: list[Identity] = []
    for identity in sorted(multiplicities, key=repr):
        count = multiplicities[identity]
        if count <= 0:
            raise ConfigurationError(f"multiplicity of {identity!r} must be positive")
        identities.extend([identity] * count)
    return Membership.of(identities)


def random_identities(
    n: int,
    *,
    domain_size: int,
    seed: int | None = None,
    rng: random.Random | None = None,
    prefix: str = "rid",
) -> Membership:
    """Assign identifiers uniformly at random from a bounded domain.

    This models the paper's motivation of "independently randomly generated
    values as process ids (so that the same id can be chosen by more than one
    process)".  Smaller ``domain_size`` yields more homonymy.

    Draws come from an explicit source — pass either ``seed`` (a private
    ``random.Random(seed)`` is created, the historical behaviour) or ``rng``
    (an already-seeded stream, so churn generators that assemble several
    memberships stay reproducible under the determinism digest).  Exactly one
    of the two must be given; nothing ever falls back to the module-level
    ``random`` state.
    """
    _require_positive(n)
    if domain_size <= 0:
        raise ConfigurationError("domain_size must be positive")
    if (seed is None) == (rng is None):
        raise ConfigurationError(
            "random_identities needs exactly one randomness source: "
            "pass seed=... or an explicit rng=..."
        )
    if rng is None:
        rng = random.Random(seed)
    return Membership.of([f"{prefix}{rng.randrange(domain_size)}" for _ in range(n)])


def _require_positive(n: int) -> None:
    if n <= 0:
        raise ConfigurationError(f"the number of processes must be positive, got {n}")
