"""Monitoring topologies: who monitors whom.

Every monitoring workload before this layer existed was implicitly
*full-mesh*: each process pinged (and was pinged by) every other process,
which costs O(n²) link messages per round and caps the reproduction's
scaling experiments at a handful of processes.  This module extracts the
"who monitors whom / who hears my heartbeats" assumption into a pluggable
object so sparse designs plug in without touching the monitor programs'
timeout machinery:

* :class:`FullMesh` — the historical default; every process watches every
  other process.  Scenario specs that do not name a topology serialize,
  hash, and execute exactly as before the layer existed.
* :class:`Ring` — each process monitors its ``successors`` next peers in
  ring order (the ``AwesomeFailureDetector`` design of SNIPPETS.md
  Snippet 2, with its explicit completeness-vs-accuracy knob ``M``):
  O(n·k) messages per round, and a crash is still detected when a victim's
  direct monitors die with it, because survivors recompute their successor
  windows over the shrinking alive view (*ring repair*).
* :class:`Gossip` — heartbeat-counter tables diffused to ``fanout`` peers
  drawn from the per-process deterministic RNG each period (SWIM-style
  dissemination): O(n·k) messages per round with probabilistic, but in
  practice fast, propagation.

Topologies are *configuration*, not membership knowledge: they compute
target sets over opaque process **indices** (the same indices the transport
backend uses to address peers), never over identities, so homonymy is
irrelevant here and the paper's "no initial knowledge of the membership"
adversary is untouched for the identity-based algorithms.

Everything is deterministic: target sets are pure functions of the sorted
member index list (and, for gossip, an explicitly passed RNG — the caller's
per-process stream), so runs digest identically across serial and pooled
execution.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Mapping, Sequence

import random

from .errors import ConfigurationError

__all__ = [
    "MonitoringTopology",
    "FullMesh",
    "Ring",
    "Gossip",
    "build_topology",
    "topology_from_dict",
    "ring_successors",
]


def _without(index: int, members: Sequence[int]) -> Sequence[int]:
    """``members`` (sorted, duplicate-free) with ``index`` cut out, in order.

    One bisect and two slices, never a scan of the view.
    """
    at = bisect_left(members, index)
    if at < len(members) and members[at] == index:
        return [*members[:at], *members[at + 1 :]]
    return members


def ring_successors(index: int, members: Sequence[int], k: int) -> tuple[int, ...]:
    """The next ``k`` distinct members after ``index`` in ring order.

    ``members`` is a sorted sequence of process indices (usually the local
    alive view, including ``index`` itself).  The ring wraps: the successor
    of the largest member is the smallest.  ``index`` need not be a member —
    a joiner computes its prospective monitors before anyone has merged it —
    in which case its position is where it *would* sit.  When ``k`` covers
    everyone (``k >= len(others)``), the result degenerates to the full mesh.

    Costs O(k + log n) reads of the view: the monitors call this every tick.
    """
    at = bisect_left(members, index)
    start = at + (at < len(members) and members[at] == index)  # the slot after index
    others = len(members) - (start - at)
    if others <= 0 or k <= 0:
        return ()
    if k >= others:
        return (*members[:at], *members[start:])
    window = members[start : start + k]
    # A short window wrapped; k < others, so the wrap stops short of index.
    return (*window, *members[: k - len(window)])


class MonitoringTopology:
    """Base class: target-set computation over sorted member index lists."""

    kind: str = ""

    @property
    def is_full_mesh(self) -> bool:
        """Whether this topology reproduces the historical all-to-all behaviour."""
        return False

    def monitor_targets(self, index: int, members: Sequence[int]) -> tuple[int, ...]:
        """The peers process ``index`` actively monitors, given its alive view."""
        raise NotImplementedError

    def gossip_targets(
        self, index: int, members: Sequence[int], rng: random.Random
    ) -> tuple[int, ...]:
        """The peers process ``index`` diffuses state to this period.

        Deterministic topologies simply return :meth:`monitor_targets`;
        :class:`Gossip` draws from ``rng`` (the caller's per-process stream).
        """
        return self.monitor_targets(index, members)

    def expected_copies_per_round(self, n: int) -> int:
        """A back-of-envelope per-round message bound, for tables and docs."""
        raise NotImplementedError

    def params(self) -> dict[str, Any]:
        """The constructor parameters, for serialization."""
        return {}

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": self.params()}

    def describe(self) -> str:
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({params})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonitoringTopology)
            and self.kind == other.kind
            and self.params() == other.params()
        )

    def __hash__(self) -> int:
        return hash((self.kind, tuple(sorted(self.params().items()))))


class FullMesh(MonitoringTopology):
    """Every process monitors every other process (the historical default)."""

    kind = "full_mesh"

    @property
    def is_full_mesh(self) -> bool:
        return True

    def monitor_targets(self, index: int, members: Sequence[int]) -> tuple[int, ...]:
        return tuple(_without(index, members))

    def expected_copies_per_round(self, n: int) -> int:
        return n * (n - 1)

    def describe(self) -> str:
        return "full mesh (all-to-all)"


class Ring(MonitoringTopology):
    """Each process monitors its ``successors`` next peers in ring order."""

    kind = "ring"

    def __init__(self, *, successors: int = 3) -> None:
        if successors < 1:
            raise ConfigurationError("a ring topology needs at least one successor")
        self.successors = successors

    def monitor_targets(self, index: int, members: Sequence[int]) -> tuple[int, ...]:
        return ring_successors(index, members, self.successors)

    def expected_copies_per_round(self, n: int) -> int:
        return n * min(self.successors, max(n - 1, 0))

    def params(self) -> dict[str, Any]:
        return {"successors": self.successors}

    def describe(self) -> str:
        return f"ring (k={self.successors} successors)"


class Gossip(MonitoringTopology):
    """Heartbeat counters diffused to ``fanout`` random-but-seeded peers."""

    kind = "gossip"

    def __init__(self, *, fanout: int = 3) -> None:
        if fanout < 1:
            raise ConfigurationError("a gossip topology needs a fanout of at least one")
        self.fanout = fanout

    def monitor_targets(self, index: int, members: Sequence[int]) -> tuple[int, ...]:
        # Gossip monitors everyone *passively* (per-peer counter staleness);
        # the active per-period send set comes from gossip_targets.
        return tuple(_without(index, members))

    def gossip_targets(
        self, index: int, members: Sequence[int], rng: random.Random
    ) -> tuple[int, ...]:
        others = _without(index, members)
        if len(others) <= self.fanout:
            return tuple(others)
        return tuple(sorted(rng.sample(others, self.fanout)))

    def expected_copies_per_round(self, n: int) -> int:
        return n * min(self.fanout, max(n - 1, 0))

    def params(self) -> dict[str, Any]:
        return {"fanout": self.fanout}

    def describe(self) -> str:
        return f"gossip (fanout={self.fanout})"


_TOPOLOGIES: dict[str, type[MonitoringTopology]] = {
    "full_mesh": FullMesh,
    "ring": Ring,
    "gossip": Gossip,
}


def build_topology(kind: str, params: Mapping[str, Any] | None = None) -> MonitoringTopology:
    """Materialise a topology from its spec data (``kind`` + parameters)."""
    try:
        cls = _TOPOLOGIES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown monitoring topology {kind!r}; expected one of {sorted(_TOPOLOGIES)}"
        ) from None
    return cls(**dict(params or {}))


def topology_from_dict(payload: Mapping[str, Any]) -> MonitoringTopology:
    """Rebuild a topology from its ``to_dict`` form."""
    return build_topology(payload["kind"], payload.get("params", {}))
