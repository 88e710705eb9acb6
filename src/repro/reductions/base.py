"""What a reduction is, and the one program that runs any of them.

A reduction emulates a detector of one class from detectors of others: the
paper's "class X is stronger than class X′".  All of them have the same shape —
a ``repeat forever`` loop (here: one iteration per ``period``, a bounded but
unknown step speed) that queries the source detectors and updates the emulated
variables, plus, for the two that communicate, a task that learns from messages.
A :class:`Reduction` row states what differs (the update ``step``, the
``initial`` value, the message ``handlers``); :class:`ReductionProgram` owns
what does not: the loop, where the outputs are recorded (the target row's trace
keys, so the target class's axioms judge the emulation) and how they are
published to co-located programs (the target row's view).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping

from ..context import ProcessContext, ProcessProgram
from ..detectors.table import CLASSES
from ..identity import IdentityMultiset
from ..membership import Membership

__all__ = ["Reduction", "ReductionProgram"]


@dataclass(frozen=True)
class Reduction:
    """One transformation of Section 3.3 (code for one process).

    ``name`` is its ``PROGRAMS`` registry name; ``sources`` and ``target`` are
    ``CLASSES`` names and ``model`` is the system model the relation holds in.
    ``step(program, ctx, *source_views)`` is one loop iteration and returns the
    emulated value — what the target class's view reads: its one output, or the
    pair of its two; ``None`` is "no output this iteration" and leaves the value
    as it is — which starts, unrecorded, at ``initial(program, ctx)``: what a
    co-located reader sees before the first step.  ``handlers`` maps a message
    kind to ``handler(program, ctx, message)``.  ``note`` qualifies the arrow
    where two rows share one, and ``knows_membership`` marks the row that is
    told ``I(Π)``.
    """

    name: str
    paper_item: str
    model: str
    sources: tuple[str, ...]
    target: str
    step: Callable[..., Any]
    initial: Callable[["ReductionProgram", ProcessContext], Any] = lambda program, ctx: None
    handlers: Mapping[str, Callable[..., None]] = field(default_factory=dict)
    note: str = ""
    knows_membership: bool = False

    @property
    def label(self) -> str:
        """``Σ → HΣ (known membership)``: the arrow, in the paper's symbols."""
        arrow = f"{CLASSES[self.sources[0]].cls} → {CLASSES[self.target].cls}"
        return f"{arrow} ({self.note})" if self.note else arrow

    def params_in(self, membership: Membership) -> dict:
        """The program parameters the row needs in a system of ``membership``
        (as JSON data: they travel in a spec)."""
        if not self.knows_membership:
            return {}
        return {"membership": list(membership.identity_multiset())}


class ReductionProgram(ProcessProgram):
    """Any row of the table, run by one process.

    ``sources`` renames the attachments read as the row's source classes (to
    chain reductions); ``detector_name`` publishes the emulated detector under
    that name; ``membership`` is ``I(Π)`` for the row that knows it.
    """

    def __init__(
        self,
        row: Reduction,
        *,
        period: float = 1.0,
        sources: tuple[str, ...] | None = None,
        record_outputs: bool = True,
        detector_name: str | None = None,
        membership: tuple[Any, ...] = (),
    ) -> None:
        if period <= 0:
            raise ValueError("the reduction period must be positive")
        self.row = row
        self.target = CLASSES[row.target]
        self.period = period
        self.sources = tuple(sources or row.sources)
        self.record_outputs = record_outputs
        self.detector_name = detector_name
        self.membership = IdentityMultiset(membership)
        #: The emulated value, and what the handlers learnt: key → identifiers.
        self.value: Any = None
        self.heard: dict[Any, set] = {}

    def setup(self, ctx: ProcessContext) -> None:
        self.value = self.row.initial(self, ctx)
        for kind, handler in self.row.handlers.items():
            ctx.on(kind, partial(handler, self, ctx))
        if self.detector_name is not None:
            ctx.attach_detector(self.detector_name, self.target.view(lambda: self.value))
        ctx.spawn(lambda: self._loop(ctx), name=f"{self.row.name}-loop")

    def _loop(self, ctx: ProcessContext):
        while True:
            self.publish(ctx, self.row.step(self, ctx, *map(ctx.detector, self.sources)))
            yield ctx.sleep(self.period)

    def publish(self, ctx: ProcessContext, value: Any) -> None:
        """Adopt ``value`` and record it under the target row's trace keys
        (``None``: keep the current value, record nothing)."""
        if value is None:
            return
        self.value = value
        if self.record_outputs:
            keys = self.target.keys
            for key, output in zip(keys, value if len(keys) > 1 else (value,)):
                ctx.record(key, output)

    def describe(self) -> str:
        return f"{self.row.paper_item}: {self.row.label}"
