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

A blocked phase re-asks both questions after every delivery, so Phases 1–2
hold their buffer in matched form (:class:`QuorumAssembly`): each message is
filed once, under every ``(sub_round, label)`` it announces, and a question
costs what arrived since it was last asked, not the round's history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..context import ProcessContext
from ..detectors.table import CLASSES, DetectorRow
from ..errors import ConfigurationError
from ..identity import Identity, IdentityMultiset
from ..sim.message import Message

__all__ = [
    "BOTTOM",
    "A_OMEGA",
    "H_OMEGA",
    "OMEGA",
    "ASigmaQuorum",
    "HSigmaQuorum",
    "LeaderRule",
    "MajorityQuorum",
    "QuorumAssembly",
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
    """Which detector class elects leaders, where it is defined, and how to ask it.

    ``detector`` is the class's row; a program queries the attachment
    registered under the row's name.  ``bind(view, identity)`` returns the
    pair ``(is_leader, multiplicity)`` of zero-argument callables the round
    skeleton's wait predicates call.
    """

    detector: DetectorRow
    membership_constraint: str | None
    bind: Callable[[Any, Identity], tuple[Callable[[], bool], Callable[[], int]]]


def _one() -> int:
    return 1


H_OMEGA = LeaderRule(
    CLASSES["HOmega"],
    None,
    lambda view, identity: (lambda: view.h_leader == identity, lambda: view.h_multiplicity),
)
OMEGA = LeaderRule(
    CLASSES["Omega"],
    "unique",
    lambda view, identity: (lambda: view.leader == identity, _one),
)
A_OMEGA = LeaderRule(
    CLASSES["AOmega"],
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
        """Broadcast ``estimate`` and wait for ``n − t`` messages (``skip`` is Figure 9's):
        the estimates of the first ``n − t`` to arrive, however many are buffered."""
        ctx.broadcast(kind, round=round_number, estimate=estimate)
        received = program.messages(kind, round_number)
        required = self.n - self.t
        yield ctx.wait_until(lambda: program.decided or len(received) >= required)
        if program.decided:
            return None
        return [message["estimate"] for message in received[:required]]

    def lock(self, estimates: list[Any]) -> Any:
        """The value carried by more than ``n/2`` of the estimates, else ``⊥``.

        Values are tried in arrival order, not in a set's hash order, so the
        answer is the same on every interpreter.
        """
        for value in dict.fromkeys(estimates):
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
    the pair.  The first feasible pair in ``repr`` order, at its lowest
    feasible sub-round, wins.
    """
    return QuorumAssembly(received, match).quorum(pairs)


class QuorumAssembly:
    """One round's ``PH1`` or ``PH2`` buffer in matched form, and this process's sub-round.

    ``received`` is the live buffer the round skeleton appends to.  Each
    question first files what arrived since the previous one: a message joins
    the *cell* ``(sub_round, label)`` of every label it announces, in arrival
    order, and may raise :attr:`highest`.

    :meth:`quorum` holds its answer together with the answer's place in the
    search order, ``(position of the pair in repr order, sub_round)``.  While
    the pairs stay those it searched, it re-matches only the cells that grew,
    and only those placed before the answer it holds.  That is the answer of a
    search from scratch: a cell that did not grow keeps its verdict, and a
    matcher picks from the front of a cell, so messages filed behind an
    accepted pick never change it.  New pairs re-match every cell once.
    """

    __slots__ = (
        "received", "match", "sub_round", "labels", "highest",
        "_filed", "_cells", "_grown", "_pairs", "_wanted", "_found",
    )

    def __init__(
        self,
        received: list[Message],
        match: Callable[[list[Message], Any], list[Message] | None],
    ) -> None:
        self.received = received
        self.match = match
        #: This process's sub-round and the labels it announced in it.
        self.sub_round = 0
        self.labels: frozenset = frozenset()
        #: The highest sub-round a filed message carries.
        self.highest = 0
        self._filed = 0
        self._cells: dict[tuple[int, Any], list[Message]] = {}
        #: The cells filed into since :meth:`quorum` last searched (a dict as an ordered set).
        self._grown: dict[tuple[int, Any], None] = {}
        self._pairs: Any = None
        #: label → ``(position, what the pair wants)`` of every searched pair.
        self._wanted: dict[Any, list[tuple[int, Any]]] = {}
        #: ``((position, sub_round), chosen messages)`` of the first feasible cell.
        self._found: tuple[tuple[int, int], list[Message]] | None = None

    def enter(self, labels: frozenset) -> int:
        """Move to the next sub-round, announcing ``labels``; returns its number."""
        self.sub_round += 1
        self.labels = labels
        return self.sub_round

    def quorum(self, pairs: Iterable[tuple]) -> list[Message] | None:
        """The messages the first feasible pair selects, or ``None``."""
        self._file()
        grown = self._grown
        if pairs is not self._pairs:
            if pairs != self._pairs:
                wanted: dict[Any, list[tuple[int, Any]]] = {}
                for position, (label, want) in enumerate(sorted(pairs, key=repr)):
                    wanted.setdefault(label, []).append((position, want))
                self._wanted, self._found, grown = wanted, None, self._cells
            self._pairs = pairs
        if grown:
            self._search(grown)
            self._grown = {}
        return None if self._found is None else self._found[1]

    def outdated(self, labels: frozenset) -> bool:
        """Lines 32-36/55-59: the labels are now ``labels``, or a message is past this sub-round."""
        self._file()
        return labels != self.labels or self.highest > self.sub_round

    def _file(self) -> None:
        """File the messages that arrived since the last call, noting the cells that grew."""
        received = self.received
        if self._filed == len(received):
            return
        cells, grown = self._cells, self._grown
        for message in received[self._filed :]:
            sub_round = message["sub_round"]
            if sub_round > self.highest:
                self.highest = sub_round
            for label in message["labels"]:
                cell = (sub_round, label)
                cells.setdefault(cell, []).append(message)
                grown[cell] = None
        self._filed = len(received)

    def _search(self, grown) -> None:
        """Re-match those of the ``grown`` cells placed before the answer held."""
        found, match, wanted, cells = self._found, self.match, self._wanted, self._cells
        for sub_round, label in grown:
            for position, want in wanted.get(label, ()):
                if found is None or (position, sub_round) < found[0]:
                    chosen = match(cells[sub_round, label], want)
                    if chosen is not None:
                        found = ((position, sub_round), chosen)
        self._found = found


class _DetectorQuorum:
    """Quorums described by a Σ-style detector, assembled over sub-rounds."""

    needs_majority = False
    detector: DetectorRow
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
        view = ctx.detector(self.detector.name)
        identity = ctx.identity
        pairs_of, labels_of = self.pairs_of, self.labels_of
        assembly = QuorumAssembly(program.messages(kind, round_number), self.match)

        def quorum():
            return assembly.quorum(pairs_of(view))

        def outdated() -> bool:
            return assembly.outdated(labels_of(view))

        def ready() -> bool:
            return program.decided or skip() or quorum() is not None or outdated()

        while True:
            labels = labels_of(view)
            ctx.broadcast(
                kind,
                round=round_number,
                identity=identity,
                sub_round=assembly.enter(labels),
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
                yield ctx.wait_until(ready)

    @staticmethod
    def lock(estimates: list[Any]) -> Any:
        """The estimate all quorum members share, else ``⊥``."""
        values = set(estimates)
        return values.pop() if len(values) == 1 else BOTTOM


class HSigmaQuorum(_DetectorQuorum):
    """HΣ: ``h_quora`` pairs ``(label, identifier multiset)`` (Figure 9)."""

    detector = CLASSES["HSigma"]
    pairs_of = staticmethod(lambda view: view.h_quora)
    labels_of = staticmethod(lambda view: frozenset(view.h_labels))
    match = staticmethod(match_multiset)


class ASigmaQuorum(_DetectorQuorum):
    """AΣ: ``a_sigma`` pairs ``(label, size)``; a process's labels are its pairs'."""

    detector = CLASSES["ASigma"]
    pairs_of = staticmethod(lambda view: view.a_sigma)
    labels_of = staticmethod(lambda view: frozenset(label for label, _ in view.a_sigma))
    match = staticmethod(match_count)
