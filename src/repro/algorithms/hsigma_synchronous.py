"""Figure 7: implementation of HΣ in ``HSS[∅]`` (synchronous homonymous system).

The algorithm runs in lock-step synchronous steps.  In each step every alive
process broadcasts ``IDENT(id(p))``, waits for the messages of that step, and
gathers the received identifiers into a multiset ``mset``.  The multiset is
then used both as a quorum *label* and as the quorum's identifier multiset:
``h_quora ← h_quora ∪ {(mset, mset)}`` and ``h_labels ← h_labels ∪ {mset}``.

Because links are timely and every alive process broadcasts in every step,
``mset`` always contains the identifiers of all processes alive throughout the
step; once the last faulty process has crashed, every correct process keeps
adding the pair ``(I(Correct), I(Correct))``, which provides liveness, while
safety follows from every realising quorum of a label being exactly the set of
processes the labelling process heard from in that step (Theorem 6).
"""

from __future__ import annotations

from ..context import ProcessContext, ProcessProgram
from ..detectors.table import CLASSES
from ..detectors.views import View
from ..identity import IdentityMultiset
from ..sim.message import Message

__all__ = ["HSigmaSynchronousProgram"]

#: The trace keys of the emulated class.
_H_QUORA, _H_LABELS = CLASSES["HSigma"].keys


class HSigmaSynchronousProgram(ProcessProgram):
    """The Figure 7 synchronous algorithm (code for one process)."""

    def __init__(
        self,
        *,
        steps: int | None = None,
        record_outputs: bool = True,
        detector_name: str | None = None,
    ) -> None:
        """``steps`` bounds how many synchronous steps to run (``None`` = forever)."""
        self._steps = steps
        self._record_outputs = record_outputs
        self._detector_name = detector_name

        # Algorithm state (paper variable names).
        self.h_labels: frozenset = frozenset()
        self.h_quora: frozenset = frozenset()
        self._current_step_identities: list = []

    def hsigma_view(self) -> View:
        """An HΣ view reading this program's current ``h_quora`` and ``h_labels``."""
        return CLASSES["HSigma"].view(lambda: (self.h_quora, self.h_labels))

    def setup(self, ctx: ProcessContext) -> None:
        if self._detector_name is not None:
            ctx.attach_detector(self._detector_name, self.hsigma_view())
        ctx.on("IDENT", self._on_ident)
        ctx.spawn(lambda: self._step_loop(ctx), name="hsigma-steps")

    def _on_ident(self, message: Message) -> None:
        self._current_step_identities.append(message["identity"])

    def _step_loop(self, ctx: ProcessContext):
        executed = 0
        while self._steps is None or executed < self._steps:
            self._current_step_identities = []
            ctx.broadcast("IDENT", identity=ctx.identity)
            yield ctx.next_synchronous_step()
            mset = IdentityMultiset(self._current_step_identities)
            if not mset.is_empty():
                self.h_quora = self.h_quora | {(mset, mset)}
                self.h_labels = self.h_labels | {mset}
            if self._record_outputs:
                ctx.record(_H_QUORA, self.h_quora)
                ctx.record(_H_LABELS, self.h_labels)
            executed += 1

    def describe(self) -> str:
        return "Figure-7 HΣ synchronous"
