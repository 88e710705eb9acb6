"""Timing models: asynchronous, partially synchronous, synchronous.

A timing model answers one question for the network — *how long does a copy
of a broadcast take over a given link?* — and one for the runtime — *how long
does a local step take?*  The three concrete models correspond to the paper's
``HAS`` (asynchronous), ``HPS`` (partially synchronous processes and
eventually timely links, with an unknown global stabilization time ``GST`` and
latency bound ``δ``), and ``HSS`` (synchronous) system families.

Whether a copy is delivered at all, and how many times, is the
:class:`~repro.sim.links.LinkModel`'s question, not the timing model's: loss,
duplication, jitter, and partitions are layered on top of the timing draw by
the network.  The single exception is the paper-sanctioned pre-GST loss of
the partially synchronous model, which stays here because the paper defines
it as part of the ``HPS`` timing discipline itself (``delivery_time`` returns
``None`` for such a loss, keeping existing seeds reproducible).  Beyond that,
timing models never lose, duplicate, or corrupt messages.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigurationError
from ..identity import ProcessId
from .clock import Time

__all__ = [
    "TimingModel",
    "AsynchronousTiming",
    "PartiallySynchronousTiming",
    "SynchronousTiming",
]


class TimingModel:
    """Interface implemented by the three timing disciplines."""

    #: Whether the model drives processes in lock-step rounds (HSS only).
    synchronous_steps: bool = False

    def delivery_time(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        sent_at: Time,
        rng: random.Random,
    ) -> Time | None:
        """Return the delivery time of a message, or ``None`` if it is lost.

        Losing messages is only permitted before GST in the partially
        synchronous model; the other models always return a time.
        """
        raise NotImplementedError

    def delivery_times(
        self,
        sender: ProcessId,
        receivers: Sequence[ProcessId],
        sent_at: Time,
        rng: random.Random,
    ) -> list[Time | None]:
        """Draw per-receiver delivery times, in receiver order.

        Semantically identical to calling :meth:`delivery_time` once per
        receiver (same draws, same order); concrete models may override it to
        amortise per-call overhead across a whole broadcast.
        """
        delivery_time = self.delivery_time
        return [delivery_time(sender, receiver, sent_at, rng) for receiver in receivers]

    def step_delay(self, process: ProcessId, at: Time, rng: random.Random) -> Time:
        """Return the local-step duration charged when a task resumes."""
        return 0.0

    def describe(self) -> str:
        """Short human-readable description for experiment tables."""
        raise NotImplementedError


def _require_finite(model: TimingModel, *fields: str) -> None:
    """Reject NaN and infinite parameters: the range checks below only test
    ``<``, which NaN passes, and a non-finite delivery time never arrives (or,
    as NaN, sorts ahead of every real one)."""
    for name in fields:
        value = getattr(model, name)
        if not math.isfinite(value):
            raise ConfigurationError(
                f"{type(model).__name__}.{name} must be a finite number, not {value!r}"
            )


@dataclass
class AsynchronousTiming(TimingModel):
    """Reliable asynchronous links: arbitrary but finite delivery delays.

    Delays are drawn uniformly from ``[min_latency, max_latency]``.  The bound
    exists only inside the simulator (delays must be finite for the run to
    progress); algorithm code never learns it, which is what "asynchronous"
    means operationally.
    """

    min_latency: Time = 0.1
    max_latency: Time = 10.0
    min_step: Time = 0.0
    max_step: Time = 0.0

    def __post_init__(self) -> None:
        _require_finite(self, "min_latency", "max_latency", "min_step", "max_step")
        if self.min_latency < 0 or self.max_latency < self.min_latency:
            raise ConfigurationError(
                "latencies must satisfy 0 <= min_latency <= max_latency"
            )
        if self.min_step < 0 or self.max_step < self.min_step:
            raise ConfigurationError("steps must satisfy 0 <= min_step <= max_step")
        # Per-draw spans, precomputed once.  ``a + span * random()`` performs
        # the exact floating-point operations of ``rng.uniform(a, b)``, so the
        # cached fast path is draw-for-draw and bit-for-bit identical.
        self._latency_span = self.max_latency - self.min_latency
        self._step_span = self.max_step - self.min_step

    def delivery_time(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        sent_at: Time,
        rng: random.Random,
    ) -> Time | None:
        return sent_at + (self.min_latency + self._latency_span * rng.random())

    def delivery_times(
        self,
        sender: ProcessId,
        receivers: Sequence[ProcessId],
        sent_at: Time,
        rng: random.Random,
    ) -> list[Time | None]:
        base = self.min_latency
        span = self._latency_span
        rand = rng.random
        return [sent_at + (base + span * rand()) for _ in receivers]

    def step_delay(self, process: ProcessId, at: Time, rng: random.Random) -> Time:
        if self.max_step <= 0:
            return 0.0
        return self.min_step + self._step_span * rng.random()

    def describe(self) -> str:
        return f"async latency∈[{self.min_latency},{self.max_latency}]"


@dataclass
class PartiallySynchronousTiming(TimingModel):
    """Eventually timely links and partially synchronous processes.

    * Messages sent at or after ``gst`` are delivered within ``delta``.
    * Messages sent before ``gst`` may be lost (probability ``pre_gst_loss``)
      or delayed by up to ``pre_gst_max_latency`` (finite, but possibly far
      larger than ``delta``); they are never delivered before ``gst`` earlier
      than their draw allows, matching "lost or delivered after an arbitrary
      (but finite) time".
    * Local steps take at most ``max_step`` (unknown to the algorithms).

    Algorithms must not read ``gst`` or ``delta``; they are simulator
    parameters standing in for the unknown bounds of the paper's model.
    """

    gst: Time = 50.0
    delta: Time = 1.0
    min_latency: Time = 0.1
    pre_gst_max_latency: Time = 200.0
    pre_gst_loss: float = 0.3
    max_step: Time = 0.0

    def __post_init__(self) -> None:
        _require_finite(
            self, "gst", "delta", "min_latency", "pre_gst_max_latency", "pre_gst_loss", "max_step"
        )
        if self.gst < 0:
            raise ConfigurationError("GST cannot be negative")
        if self.delta <= 0:
            raise ConfigurationError("delta must be positive")
        if not 0 <= self.pre_gst_loss <= 1:
            raise ConfigurationError("pre_gst_loss must be a probability")
        if self.min_latency < 0 or self.min_latency > self.delta:
            raise ConfigurationError("min_latency must lie in [0, delta]")
        if self.pre_gst_max_latency < self.delta:
            raise ConfigurationError("pre_gst_max_latency must be at least delta")
        if self.max_step < 0:
            raise ConfigurationError("max_step cannot be negative")
        # Precomputed uniform-draw spans; see AsynchronousTiming.__post_init__.
        self._timely_span = self.delta - self.min_latency
        self._pre_gst_span = self.pre_gst_max_latency - self.min_latency

    def delivery_time(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        sent_at: Time,
        rng: random.Random,
    ) -> Time | None:
        if sent_at >= self.gst:
            return sent_at + (self.min_latency + self._timely_span * rng.random())
        if rng.random() < self.pre_gst_loss:
            return None
        return sent_at + (self.min_latency + self._pre_gst_span * rng.random())

    def step_delay(self, process: ProcessId, at: Time, rng: random.Random) -> Time:
        if self.max_step <= 0:
            return 0.0
        # uniform(0, b) is 0.0 + (b - 0.0) * random(); identical draw, no call.
        return self.max_step * rng.random()

    def describe(self) -> str:
        return f"partially-synchronous GST={self.gst} δ={self.delta}"


@dataclass
class SynchronousTiming(TimingModel):
    """Lock-step synchronous rounds with known bounds.

    A synchronous step ``s`` spans the interval ``[s·step, (s+1)·step)``.
    Every message broadcast during step ``s`` by a process that does not crash
    mid-broadcast is delivered strictly inside step ``s`` (at a fixed fraction
    of the step), so a process that waits for "the messages sent in this
    synchronous step" (Figure 7) sees all of them before the step boundary.
    """

    step: Time = 1.0
    delivery_fraction: float = 0.5

    synchronous_steps = True

    def __post_init__(self) -> None:
        _require_finite(self, "step", "delivery_fraction")
        if self.step <= 0:
            raise ConfigurationError("step duration must be positive")
        if not 0 < self.delivery_fraction < 1:
            raise ConfigurationError("delivery_fraction must lie strictly in (0, 1)")

    def step_index(self, at: Time) -> int:
        """Return the index of the synchronous step containing time ``at``."""
        return int(math.floor(at / self.step + 1e-9))

    def step_start(self, index: int) -> Time:
        """Return the start time of synchronous step ``index``."""
        return index * self.step

    def next_step_start(self, at: Time) -> Time:
        """Return the start time of the step following the one containing ``at``."""
        return self.step_start(self.step_index(at) + 1)

    def delivery_time(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        sent_at: Time,
        rng: random.Random,
    ) -> Time | None:
        step_index = self.step_index(sent_at)
        in_step_delivery = self.step_start(step_index) + self.delivery_fraction * self.step
        # A message sent late within the step is still delivered before the
        # boundary, but never before it was sent.
        return max(sent_at, in_step_delivery)

    def delivery_times(
        self,
        sender: ProcessId,
        receivers: Sequence[ProcessId],
        sent_at: Time,
        rng: random.Random,
    ) -> list[Time | None]:
        # Every receiver of one broadcast gets the same deterministic time
        # (the receiver plays no part in it): computed once.
        return [self.delivery_time(sender, sender, sent_at, rng)] * len(receivers)

    def describe(self) -> str:
        return f"synchronous step={self.step}"
