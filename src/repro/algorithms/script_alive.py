"""Figure 3: implementation of the class ℰ in ``AS[∅]``.

Every process repeatedly broadcasts ``ALIVE(id(p))``; on receiving
``ALIVE(i)`` it moves ``i`` to (or inserts it at) the first position of its
``alive`` sequence.  Identifiers of faulty processes eventually stop being
refreshed and sink below the identifiers of the correct processes, which keep
being moved to the front — so eventually every correct identifier stays within
the first ``|Correct|`` ranks (Lemma 1).

The paper's ``repeat forever`` loop is paced here by a ``resend_period``: a
partially synchronous (or asynchronous-but-live) process takes a bounded
number of time units per loop iteration, and the period is that bound made
explicit.  The class is only meaningful with unique identifiers, but the
program itself runs anywhere; the Figure 4 reduction that consumes it checks
the uniqueness assumption.
"""

from __future__ import annotations

from ..detectors.table import CLASSES
from ..detectors.views import ScriptEView
from ..sim.message import Message
from ..sim.process import ProcessContext, ProcessProgram

__all__ = ["ScriptAliveProgram"]

#: The trace keys of the emulated class.
(_ALIVE,) = CLASSES["ScriptE"].keys


class ScriptAliveProgram(ProcessProgram):
    """The Figure 3 algorithm (code for one process)."""

    def __init__(
        self,
        *,
        resend_period: float = 1.0,
        record_outputs: bool = True,
        detector_name: str | None = None,
    ) -> None:
        if resend_period <= 0:
            raise ValueError("the resend period must be positive")
        self._resend_period = resend_period
        self._record_outputs = record_outputs
        self._detector_name = detector_name
        self.alive: list = []

    def script_e_view(self) -> ScriptEView:
        """An ℰ view reading this program's current ``alive`` sequence."""
        return ScriptEView(lambda: tuple(self.alive))

    def setup(self, ctx: ProcessContext) -> None:
        if self._detector_name is not None:
            ctx.attach_detector(self._detector_name, self.script_e_view())
        ctx.on("ALIVE", lambda msg: self._on_alive(ctx, msg))
        ctx.spawn(lambda: self._heartbeat_task(ctx), name="script-e-heartbeat")

    def _heartbeat_task(self, ctx: ProcessContext):
        while True:
            ctx.broadcast("ALIVE", identity=ctx.identity)
            yield ctx.sleep(self._resend_period)

    def _on_alive(self, ctx: ProcessContext, message: Message) -> None:
        identity = message["identity"]
        if identity in self.alive:
            self.alive.remove(identity)
        self.alive.insert(0, identity)
        if self._record_outputs:
            ctx.record(_ALIVE, tuple(self.alive))

    def describe(self) -> str:
        return "Figure-3 ℰ heartbeat"
