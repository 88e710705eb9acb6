"""The two rules a consensus row is made of.

A **leader rule** says which detector attachment answers "am I a leader" and
how many homonymous leaders there are — HΩ in general, with Ω and AΩ as the
unique-identifier and anonymous extremes, each only defined at its extreme.

A **quorum rule** says how Phases 1 and 2 gather their messages and what a
gathered Phase 1 locks: ``n − t`` messages of a known ``n`` (Figure 8), or a
set of messages realising one of the quorums an HΣ / AΣ detector describes
(Figure 9 and its anonymous instance), assembled over *sub-rounds* so that the
assembly can catch up with the detector's evolution:

* every ``PH1``/``PH2`` message carries the sender's identifier, the current
  sub-round, the sender's current labels, and its estimate;
* a process exits the phase when, for some pair the detector outputs, a set
  ``M`` of messages of one sub-round exists whose senders all carry the pair's
  label and which matches the pair (identifier multiset for HΣ, size for AΣ);
* whenever its own labels change, or it learns that another process moved to
  a higher sub-round, it enters a new sub-round and re-broadcasts its message
  with the fresh labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..detectors.table import CLASSES
from ..errors import ConfigurationError
from ..identity import Identity, IdentityMultiset
from ..sim.message import Message
from ..sim.process import ProcessContext

__all__ = [
    "BOTTOM",
    "A_OMEGA",
    "H_OMEGA",
    "OMEGA",
    "ASigmaQuorum",
    "HSigmaQuorum",
    "LeaderRule",
    "MajorityQuorum",
    "find_quorum",
    "match_count",
    "match_multiset",
]

#: The ⊥ ("bottom") estimate used by Phases 1 and 2.
BOTTOM = "⊥-consensus"


# ----------------------------------------------------------------------
# Leader rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LeaderRule:
    """Which attachment elects leaders, where it is defined, and how to ask it.

    ``bind(view, identity)`` returns the pair ``(is_leader, multiplicity)`` of
    zero-argument callables the round skeleton's wait predicates call.
    """

    detector: str
    membership_constraint: str | None
    bind: Callable[[Any, Identity], tuple[Callable[[], bool], Callable[[], int]]]


def _one() -> int:
    return 1


H_OMEGA = LeaderRule(
    CLASSES["HOmega"].name,
    None,
    lambda view, identity: (lambda: view.h_leader == identity, lambda: view.h_multiplicity),
)
OMEGA = LeaderRule(
    CLASSES["Omega"].name,
    "unique",
    lambda view, identity: (lambda: view.leader == identity, _one),
)
A_OMEGA = LeaderRule(
    CLASSES["AOmega"].name,
    "anonymous",
    lambda view, identity: (lambda: bool(view.a_leader), _one),
)


# ----------------------------------------------------------------------
# Quorum rules
# ----------------------------------------------------------------------
class MajorityQuorum:
    """``n − t`` messages, with the ``> n/2`` lock (Figure 8, ``t < n/2``).

    ``n`` is the (known) system size; ``t`` the assumed maximum number of
    crashes, defaulting to the largest minority ``⌈n/2⌉ − 1``.
    """

    detector = None
    needs_majority = True

    def __init__(self, *, n: int, t: int | None = None) -> None:
        if n <= 0:
            raise ConfigurationError("the system size n must be positive")
        if t is None:
            t = (n - 1) // 2
        if not 0 <= t < n / 2:
            raise ConfigurationError(
                f"Figure 8 requires a majority of correct processes (t < n/2); got t={t}, n={n}"
            )
        self.n = n
        self.t = t

    def gather(
        self, program, ctx: ProcessContext, kind: str, round_number: int, estimate: Any,
        skip: Callable[[], bool],
    ):
        """Broadcast ``estimate`` and wait for ``n − t`` messages (``skip`` is Figure 9's)."""
        ctx.broadcast(kind, round=round_number, estimate=estimate)
        received = program.messages(kind, round_number)
        required = self.n - self.t
        yield ctx.wait_until(lambda: program.decided or len(received) >= required)
        return None if program.decided else [message["estimate"] for message in received]

    def lock(self, estimates: list[Any]) -> Any:
        """The value carried by more than ``n/2`` of the estimates, else ``⊥``."""
        for value in set(estimates):
            if estimates.count(value) > self.n / 2:
                return value
        return BOTTOM


def match_multiset(
    candidates: Iterable[Message], multiset: IdentityMultiset
) -> list[Message] | None:
    """HΣ: pick, per identifier, the number of candidates the multiset requires."""
    if not isinstance(multiset, IdentityMultiset):
        multiset = IdentityMultiset(multiset)
    remaining = dict(multiset.counts)
    if not remaining:
        return None
    chosen: list[Message] = []
    for message in candidates:
        identity = message["identity"]
        if remaining.get(identity, 0) > 0:
            chosen.append(message)
            remaining[identity] -= 1
    return None if any(remaining.values()) else chosen


def match_count(candidates: list[Message], size: int) -> list[Message] | None:
    """AΣ: the first ``size`` candidates (anonymous quorums carry sizes, not multisets)."""
    return candidates[:size] if len(candidates) >= size > 0 else None


def find_quorum(received: list[Message], pairs: Iterable[tuple], match) -> list[Message] | None:
    """A message set ``M`` realising some detector pair (Lines 25-28/45-48 of Figure 9).

    All messages of ``M`` belong to the same sub-round, every sender's
    announced labels contain the pair's label, and ``match`` accepts them for
    the pair.  The first feasible pair (in a deterministic order) wins.
    """
    if not received:
        return None
    sub_rounds = sorted({message["sub_round"] for message in received})
    for label, wanted in sorted(pairs, key=repr):
        for sub_round in sub_rounds:
            chosen = match(
                [
                    message
                    for message in received
                    if message["sub_round"] == sub_round and label in message["labels"]
                ],
                wanted,
            )
            if chosen is not None:
                return chosen
    return None


class _DetectorQuorum:
    """Quorums described by a Σ-style detector, assembled over sub-rounds."""

    needs_majority = False
    detector: str
    #: ``view -> pairs`` and ``view -> frozenset of labels``, and the matcher.
    pairs_of: Callable[[Any], Iterable[tuple]]
    labels_of: Callable[[Any], frozenset]
    match: Callable[[list[Message], Any], list[Message] | None]

    def gather(
        self, program, ctx: ProcessContext, kind: str, round_number: int, estimate: Any,
        skip: Callable[[], bool],
    ):
        """Broadcast ``estimate`` sub-round after sub-round until a quorum assembles.

        Returns the quorum's estimates, or ``None`` when the program decided or
        ``skip()`` (the phase's short-circuit test) fired first.
        """
        view = ctx.detector(self.detector)
        identity = ctx.identity
        received = program.messages(kind, round_number)
        pairs_of, labels_of, match = self.pairs_of, self.labels_of, self.match
        sub_round = 0

        def quorum():
            return find_quorum(received, pairs_of(view), match)

        def outdated() -> bool:
            # Lines 32-36/55-59: new labels or a higher sub-round somewhere.
            return labels_of(view) != labels or any(
                message["sub_round"] > sub_round for message in received
            )

        while True:
            sub_round += 1
            labels = labels_of(view)
            ctx.broadcast(
                kind,
                round=round_number,
                identity=identity,
                sub_round=sub_round,
                labels=tuple(labels),
                estimate=estimate,
            )
            while True:
                if program.decided or skip():
                    return None
                chosen = quorum()
                if chosen is not None:
                    return [message["estimate"] for message in chosen]
                if outdated():
                    break
                yield ctx.wait_until(
                    lambda: program.decided or skip() or quorum() is not None or outdated()
                )

    @staticmethod
    def lock(estimates: list[Any]) -> Any:
        """The estimate all quorum members share, else ``⊥``."""
        values = set(estimates)
        return values.pop() if len(values) == 1 else BOTTOM


class HSigmaQuorum(_DetectorQuorum):
    """HΣ: ``h_quora`` pairs ``(label, identifier multiset)`` (Figure 9)."""

    detector = CLASSES["HSigma"].name
    pairs_of = staticmethod(lambda view: view.h_quora)
    labels_of = staticmethod(lambda view: frozenset(view.h_labels))
    match = staticmethod(match_multiset)


class ASigmaQuorum(_DetectorQuorum):
    """AΣ: ``a_sigma`` pairs ``(label, size)``; a process's labels are its pairs'."""

    detector = CLASSES["ASigma"].name
    pairs_of = staticmethod(lambda view: view.a_sigma)
    labels_of = staticmethod(lambda view: frozenset(label for label, _ in view.a_sigma))
    match = staticmethod(match_count)
