"""Pluggable link models: per-link delivery behaviour as a first-class layer.

The network layer splits the fate of a message copy between two collaborators:

* the :class:`~repro.sim.timing.TimingModel` answers *how long* — it draws the
  base delivery time of a copy over a link (and may declare paper-sanctioned
  pre-GST loss in the partially synchronous model);
* a :class:`LinkModel` answers *whether* and *how many* — it can drop the
  copy, duplicate it, add jitter or a per-direction latency penalty, or sever
  it entirely during a timed partition.

Link models are pure transformations over the tuple of candidate delivery
times of one copy, so they compose: :class:`ComposedLinks` chains stages in
order, each seeing the output of the previous one.  The default
:class:`ReliableLinks` is the identity, which preserves the seed-for-seed
behaviour of runs that predate this layer.

Every model exposes two envelope facts the scenario builder checks against the
paper's assumption table:

* :meth:`LinkModel.unreliable_until` — the latest time at which the model may
  still lose or duplicate copies (``0.0`` = never, ``inf`` = forever);
* :meth:`LinkModel.extra_delay_bound` — the largest latency the model can add
  on top of the timing model's draw (``0.0`` for none).

``HSS`` tolerates neither; ``HPS`` tolerates loss only before GST (and any
finite extra delay, since its bound δ is unknown to the algorithms anyway);
``HAS`` tolerates any adversity that eventually heals.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..errors import ConfigurationError
from ..identity import ProcessId
from .clock import Time

__all__ = [
    "LinkModel",
    "ReliableLinks",
    "LossyLinks",
    "DuplicatingLinks",
    "JitterLinks",
    "AsymmetricLinks",
    "Partition",
    "PartitionedLinks",
    "ComposedLinks",
]


class LinkModel:
    """Interface of one stage of per-link delivery behaviour.

    :meth:`deliveries` receives the candidate delivery times of one message
    copy over the ``sender → receiver`` link (the timing model's draw, or the
    output of the previous stage) and returns the possibly filtered,
    duplicated, or re-timed tuple.  Returning ``()`` drops the copy.
    """

    def deliveries(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        sent_at: Time,
        times: tuple[Time, ...],
        rng: random.Random,
    ) -> tuple[Time, ...]:
        """Transform the candidate delivery times of one copy (default: identity)."""
        return times

    def unreliable_until(self) -> Time:
        """Latest time the model may lose/duplicate copies (0.0 = never, inf = forever)."""
        return 0.0

    def extra_delay_bound(self) -> Time:
        """The largest latency this model adds beyond the timing model's draw."""
        return 0.0

    def duplicates(self) -> bool:
        """Whether the model can deliver one copy more than once."""
        return False

    def describe(self) -> str:
        """Short human-readable description for logs and experiment tables."""
        raise NotImplementedError


def _window_end(end: Time | None) -> Time:
    return math.inf if end is None else end


def _validate_window(start: Time, end: Time | None) -> None:
    if start < 0:
        raise ConfigurationError("a fault window cannot start before time 0")
    if end is not None and end <= start:
        raise ConfigurationError("a fault window must end strictly after it starts")


@dataclass(frozen=True)
class ReliableLinks(LinkModel):
    """The default: every copy is delivered exactly once, exactly when drawn."""

    def deliveries(self, sender, receiver, sent_at, times, rng):
        return times

    def describe(self) -> str:
        return "reliable"


@dataclass(frozen=True)
class LossyLinks(LinkModel):
    """Drop each copy independently with probability ``loss`` inside a window.

    ``end=None`` means the loss never stops — adversarial for every system
    family's termination guarantees, which the builder flags accordingly.
    """

    loss: float = 0.1
    start: Time = 0.0
    end: Time | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise ConfigurationError("loss must be a probability")
        _validate_window(self.start, self.end)
        # Cached window end: ``deliveries`` runs once per message copy, so it
        # must not re-derive ``inf`` from ``None`` on every call.
        object.__setattr__(self, "_end_time", _window_end(self.end))

    def deliveries(self, sender, receiver, sent_at, times, rng):
        if not times or self.loss <= 0.0:
            return times
        if not (self.start <= sent_at < self._end_time):
            return times
        return tuple(when for when in times if rng.random() >= self.loss)

    def unreliable_until(self) -> Time:
        return 0.0 if self.loss <= 0.0 else _window_end(self.end)

    def describe(self) -> str:
        until = "∞" if self.end is None else f"{self.end}"
        return f"lossy p={self.loss} over [{self.start},{until})"


@dataclass(frozen=True)
class DuplicatingLinks(LinkModel):
    """Duplicate each copy with probability ``probability`` inside a window.

    A duplicated copy arrives ``copies`` times in total; each extra copy is
    delayed by a fresh ``uniform(0, spread)`` draw on top of the original
    delivery time.  Duplication is adversarial for counting algorithms in
    homonymous systems (two copies from one sender are indistinguishable from
    two homonymous senders), so it counts toward :meth:`unreliable_until`.
    """

    probability: float = 0.1
    copies: int = 2
    spread: Time = 0.0
    start: Time = 0.0
    end: Time | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("probability must lie in [0, 1]")
        if self.copies < 2:
            raise ConfigurationError("duplication needs at least 2 copies")
        if self.spread < 0:
            raise ConfigurationError("spread cannot be negative")
        _validate_window(self.start, self.end)
        object.__setattr__(self, "_end_time", _window_end(self.end))

    def deliveries(self, sender, receiver, sent_at, times, rng):
        if not times or self.probability <= 0.0:
            return times
        if not (self.start <= sent_at < self._end_time):
            return times
        expanded: list[Time] = []
        for when in times:
            expanded.append(when)
            if rng.random() < self.probability:
                for _ in range(self.copies - 1):
                    extra = rng.uniform(0.0, self.spread) if self.spread > 0 else 0.0
                    expanded.append(when + extra)
        return tuple(expanded)

    def unreliable_until(self) -> Time:
        return 0.0 if self.probability <= 0.0 else _window_end(self.end)

    def extra_delay_bound(self) -> Time:
        return self.spread if self.probability > 0.0 else 0.0

    def duplicates(self) -> bool:
        return self.probability > 0.0

    def describe(self) -> str:
        return f"duplicating p={self.probability}×{self.copies}"


@dataclass(frozen=True)
class JitterLinks(LinkModel):
    """Add ``uniform(0, max_jitter)`` to every copy inside a window.

    Jitter reorders messages relative to the timing model's draws but never
    loses or duplicates them, so only :meth:`extra_delay_bound` is non-zero.
    """

    max_jitter: Time = 1.0
    start: Time = 0.0
    end: Time | None = None

    def __post_init__(self) -> None:
        if self.max_jitter < 0:
            raise ConfigurationError("max_jitter cannot be negative")
        _validate_window(self.start, self.end)
        object.__setattr__(self, "_end_time", _window_end(self.end))

    def deliveries(self, sender, receiver, sent_at, times, rng):
        if not times or self.max_jitter <= 0.0:
            return times
        if not (self.start <= sent_at < self._end_time):
            return times
        # uniform(0, b) is 0.0 + (b - 0.0) * random(); identical draw, no call.
        max_jitter = self.max_jitter
        return tuple(when + max_jitter * rng.random() for when in times)

    def extra_delay_bound(self) -> Time:
        return self.max_jitter

    def describe(self) -> str:
        return f"jitter ≤{self.max_jitter}"


@dataclass(frozen=True)
class AsymmetricLinks(LinkModel):
    """Deterministic per-direction latency penalties.

    ``extra`` maps ``"i->j"`` link keys (process indices) to an additional
    delay applied on top of the timing model's draw for that direction;
    ``default`` applies to every link not named.  The string keys keep the
    mapping JSON-serializable in a :class:`~repro.runtime.spec.NetworkSpec`.

    A constant penalty keeps links eventually timely (the paper's δ is an
    unknown bound, so δ + extra is just as valid), hence
    :meth:`unreliable_until` stays 0.
    """

    extra: Mapping[str, Time] = field(default_factory=dict)
    default: Time = 0.0

    def __post_init__(self) -> None:
        if self.default < 0:
            raise ConfigurationError("the default extra delay cannot be negative")
        normalized: dict[str, Time] = {}
        for key, value in dict(self.extra).items():
            if value < 0:
                raise ConfigurationError(f"extra delay for link {key!r} cannot be negative")
            try:
                left, right = (int(part) for part in str(key).split("->"))
            except ValueError:
                raise ConfigurationError(
                    f"asymmetric link keys look like 'i->j' (process indices); got {key!r}"
                ) from None
            if left < 0 or right < 0:
                raise ConfigurationError(
                    f"asymmetric link keys use non-negative process indices; got {key!r}"
                )
            normalized[f"{left}->{right}"] = float(value)
        object.__setattr__(self, "extra", normalized)

    def deliveries(self, sender, receiver, sent_at, times, rng):
        if not times:
            return times
        penalty = self.extra.get(f"{sender.index}->{receiver.index}", self.default)
        if penalty <= 0.0:
            return times
        return tuple(when + penalty for when in times)

    def extra_delay_bound(self) -> Time:
        return max([self.default, *self.extra.values()], default=self.default)

    def describe(self) -> str:
        return f"asymmetric ({len(self.extra)} link(s), default +{self.default})"


@dataclass(frozen=True)
class Partition(LinkModel):
    """One timed partition: disjoint blocks that cannot reach each other.

    A copy is dropped iff it is *sent* between ``start`` and ``end`` (the
    heal event; ``None`` = never heals) while sender and receiver sit in
    *different* blocks of ``groups`` (tuples of process indices).  A process
    not named in any block is unaffected — it keeps both directions of all
    its links.  The gate is the send time: a copy sent just before the cut
    may still arrive mid-window (it was already "on the wire"), and copies
    sent across the cut during the window are lost, not delayed — healing
    restores the link, not the traffic.
    """

    start: Time
    end: Time | None
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _validate_window(self.start, self.end)
        blocks = tuple(tuple(int(index) for index in group) for group in self.groups)
        seen: set[int] = set()
        for block in blocks:
            for index in block:
                if index < 0:
                    raise ConfigurationError("process indices cannot be negative")
                if index in seen:
                    raise ConfigurationError(
                        f"process {index} appears in more than one partition block"
                    )
                seen.add(index)
        if len(blocks) < 2:
            raise ConfigurationError("a partition needs at least two blocks")
        object.__setattr__(self, "groups", blocks)
        object.__setattr__(
            self, "_block_of", {index: i for i, block in enumerate(blocks) for index in block}
        )
        object.__setattr__(self, "_end_time", _window_end(self.end))

    def severs(self, sender: ProcessId, receiver: ProcessId, at: Time) -> bool:
        """Whether the ``sender → receiver`` link is cut at time ``at``."""
        if not (self.start <= at < self._end_time):
            return False
        block_of: dict[int, int] = getattr(self, "_block_of")
        sender_block = block_of.get(sender.index)
        receiver_block = block_of.get(receiver.index)
        if sender_block is None or receiver_block is None:
            return False
        return sender_block != receiver_block

    def deliveries(self, sender, receiver, sent_at, times, rng):
        if times and self.severs(sender, receiver, sent_at):
            return ()
        return times

    def unreliable_until(self) -> Time:
        return _window_end(self.end)

    def describe(self) -> str:
        until = "∞" if self.end is None else f"{self.end}"
        blocks = "|".join(",".join(map(str, block)) for block in self.groups)
        return f"partition {{{blocks}}} over [{self.start},{until})"

    @classmethod
    def from_window(cls, window: Mapping[str, Any]) -> "Partition":
        """Build from the JSON shape ``{"start":, "end":, "groups": [[...]]}``."""
        return cls(
            start=float(window.get("start", 0.0)),
            end=None if window.get("end") is None else float(window["end"]),
            groups=tuple(tuple(group) for group in window.get("groups", ())),
        )


@dataclass(frozen=True)
class PartitionedLinks(LinkModel):
    """A sequence of timed partitions, each with its own heal event."""

    partitions: tuple[Partition, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "partitions", tuple(self.partitions))

    def deliveries(self, sender, receiver, sent_at, times, rng):
        for partition in self.partitions:
            if times and partition.severs(sender, receiver, sent_at):
                return ()
        return times

    def unreliable_until(self) -> Time:
        return max(
            (partition.unreliable_until() for partition in self.partitions), default=0.0
        )

    def describe(self) -> str:
        if not self.partitions:
            return "no partitions"
        return "; ".join(partition.describe() for partition in self.partitions)

    @classmethod
    def from_windows(cls, windows: Sequence[Mapping[str, Any]]) -> "PartitionedLinks":
        return cls(tuple(Partition.from_window(window) for window in windows))


@dataclass(frozen=True)
class ComposedLinks(LinkModel):
    """Apply several link models in order; each stage sees the previous output."""

    stages: tuple[LinkModel, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))

    def deliveries(self, sender, receiver, sent_at, times, rng):
        for stage in self.stages:
            if not times:
                return times
            times = stage.deliveries(sender, receiver, sent_at, times, rng)
        return times

    def unreliable_until(self) -> Time:
        return max((stage.unreliable_until() for stage in self.stages), default=0.0)

    def extra_delay_bound(self) -> Time:
        return sum(stage.extra_delay_bound() for stage in self.stages)

    def duplicates(self) -> bool:
        return any(stage.duplicates() for stage in self.stages)

    def describe(self) -> str:
        if not self.stages:
            return "reliable"
        return " ∘ ".join(stage.describe() for stage in self.stages)
