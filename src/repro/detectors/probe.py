"""A probe program that periodically samples detector outputs into the trace.

Experiments that study a detector in isolation (convergence of the Figure 6
implementation, behaviour of an oracle, output of a reduction) attach the
detector to a system whose processes run a :class:`DetectorProbeProgram`: the
probe queries the detector every ``period`` time units and records the answers
under the trace keys of its class (``CLASSES[name].probes()``), so the class
axioms and the convergence analysis can be applied afterwards.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..sim.process import ProcessContext, ProcessProgram

__all__ = ["DetectorProbeProgram"]

Probe = Callable[[ProcessContext], Any]


class DetectorProbeProgram(ProcessProgram):
    """Record the outputs of attached detectors at a fixed sampling period."""

    def __init__(
        self,
        probes: Mapping[str, Probe],
        *,
        period: float = 1.0,
        samples: int | None = None,
    ) -> None:
        if period <= 0:
            raise ValueError("the sampling period must be positive")
        self._probes = dict(probes)
        self._period = period
        self._samples = samples

    def setup(self, ctx: ProcessContext) -> None:
        ctx.spawn(lambda: self._sample_loop(ctx), name="detector-probe")

    def _sample_loop(self, ctx: ProcessContext):
        taken = 0
        while self._samples is None or taken < self._samples:
            for key, probe in self._probes.items():
                ctx.record(key, probe(ctx))
            taken += 1
            yield ctx.sleep(self._period)
