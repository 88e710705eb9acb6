"""The one round skeleton every consensus algorithm of the family runs.

Section 5 of the paper is one algorithm told twice.  Figures 8 and 9 share
their round structure — and so do the baselines Figure 8 was derived from and
the anonymous instance Section 5.3 closes with:

* **Leaders' Coordination Phase** — every process broadcasts
  ``COORD(id(p), r, est1)``.  When the row keeps the phase, a process that
  considers itself a leader waits for one ``COORD`` of its own identifier from
  each of its homonymous leaders and adopts the minimum of their estimates, so
  all homonymous leaders eventually propose the same value (Lemma 7).
* **Phase 0** — leaders broadcast their estimate; non-leaders wait for a
  leader's ``PH0`` and adopt it.
* **Phase 1** — everybody broadcasts its estimate and gathers a quorum of
  them; the quorum rule says whether they lock a value ``v`` or yield ``⊥``.
* **Phase 2** — everybody broadcasts the Phase 1 outcome and gathers a quorum
  again; a process that sees only ``v ≠ ⊥`` decides ``v``, one that sees ``v``
  and ``⊥`` adopts ``v`` for the next round, one that sees only ``⊥`` keeps
  its estimate.

Decisions propagate through the reliable ``DECIDE`` relay (the paper's Task
T2), so correct processes stuck in a phase after others decided still
terminate.

What differs between the algorithms is a *row*: which detector answers "am I
a leader" (:class:`~repro.consensus.rules.LeaderRule`), how Phases 1–2 gather
a quorum (:mod:`~repro.consensus.rules`' quorum rules), and whether the
coordination wait is kept.  :mod:`repro.consensus.family` declares the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..sim.message import Message
from ..sim.process import ProcessContext, ProcessProgram
from .rules import BOTTOM, LeaderRule

__all__ = ["ConsensusKeys", "ConsensusProgram"]


@dataclass(frozen=True)
class ConsensusKeys:
    """Standard trace keys recorded by the consensus programs."""

    ROUND: str = "consensus.round"
    PHASE: str = "consensus.phase"
    ESTIMATE: str = "consensus.est1"
    DECIDED_ROUND: str = "consensus.decided_round"


KEYS = ConsensusKeys()


class ConsensusProgram(ProcessProgram):
    """A round-based consensus program (code for one process).

    A subclass declares its row — :attr:`leader_rule`, :attr:`quorum_rule`,
    :attr:`use_coordination_phase` — and inherits everything else: the
    proposal / estimate / round-counter state, per-round message buffers
    (``COORD``, ``PH0``, ``PH1``, ``PH2``, arrival order preserved), the round
    skeleton, the ``DECIDE`` relay and the trace records.  Constructor keywords
    other than ``record_outputs`` belong to the quorum rule (the majority rule
    takes ``n`` and ``t``; the detector-quorum rules take none).
    """

    #: The row (a subclass that overrides :meth:`run_round` needs none).
    leader_rule: LeaderRule | None = None
    quorum_rule: type | None = None
    use_coordination_phase = False
    #: Where the paper states the algorithm, and its one-line name.
    paper_item = ""
    description = ""

    #: Message kinds buffered per round.
    _BUFFERED_KINDS = ("COORD", "PH0", "PH1", "PH2")

    def __init__(
        self, proposal: Any, *, record_outputs: bool = True, **quorum_params: Any
    ) -> None:
        self.proposal = proposal
        self.est1 = proposal
        self.round = 0
        self.record_outputs = record_outputs
        self.decided_value: Any = None
        self.decided = False
        self.quorum = self.quorum_rule(**quorum_params) if self.quorum_rule else None
        self._buffers: dict[str, dict[int, list[Message]]] = {
            kind: {} for kind in self._BUFFERED_KINDS
        }

    @classmethod
    def requirements(cls) -> dict[str, Any]:
        """The row's line of the paper's assumption table, derived from its rules."""
        leader, quorum = cls.leader_rule, cls.quorum_rule
        quorum_detector = (quorum.detector,) if quorum.detector else ()
        return {
            "requires_detectors": (leader.detector, *quorum_detector),
            "needs_majority": quorum.needs_majority,
            "membership_constraint": leader.membership_constraint,
            "paper_item": cls.paper_item,
        }

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def setup(self, ctx: ProcessContext) -> None:
        for kind in self._BUFFERED_KINDS:
            ctx.on(kind, self._make_buffer_handler(kind))
        ctx.on("DECIDE", lambda msg: self._on_decide(ctx, msg))
        ctx.spawn(lambda: self._round_loop(ctx), name="consensus-rounds")

    def _make_buffer_handler(self, kind: str):
        buffer = self._buffers[kind]

        def handler(message: Message) -> None:
            buffer.setdefault(message["round"], []).append(message)

        return handler

    def messages(self, kind: str, round_number: int) -> list[Message]:
        """The live buffer of ``kind`` messages for ``round_number`` (arrival order)."""
        return self._buffers[kind].setdefault(round_number, [])

    # ------------------------------------------------------------------
    # The round loop (Task T1)
    # ------------------------------------------------------------------
    def _round_loop(self, ctx: ProcessContext):
        while not self.decided:
            self.round += 1
            if self.record_outputs:
                ctx.record(KEYS.ROUND, self.round)
                ctx.record(KEYS.ESTIMATE, self.est1)
            yield from self.run_round(ctx, self.round)

    def run_round(self, ctx: ProcessContext, round_number: int):
        """One round (Lines 7-35 of Figure 8, 7-62 of Figure 9), as a generator."""
        identity = ctx.identity
        # Bound here, not in setup: a stacked detector implementation attaches
        # its view in its own setup, which may run after this program's.
        is_leader, multiplicity = self.leader_rule.bind(
            ctx.detector(self.leader_rule.detector), identity
        )

        # -- Leaders' Coordination Phase ---------------------------------
        # Broadcast even when the wait is dropped: a detector-quorum Phase 2
        # reads the next round's COORD as "somebody already moved on".
        ctx.broadcast("COORD", round=round_number, identity=identity, estimate=self.est1)
        if self.use_coordination_phase:
            coord = self.messages("COORD", round_number)

            def own_estimates() -> list[Any]:
                return [m["estimate"] for m in coord if m["identity"] == identity]

            yield ctx.wait_until(
                lambda: self.decided
                or not is_leader()
                or len(own_estimates()) >= multiplicity()
            )
            if self.decided:
                return
            if own := own_estimates():
                # Lines 12-14: adopt the smallest estimate among homonymous leaders.
                self.est1 = min(own)

        # -- Phase 0 -----------------------------------------------------
        ph0 = self.messages("PH0", round_number)
        yield ctx.wait_until(lambda: self.decided or is_leader() or bool(ph0))
        if self.decided:
            return
        if ph0:
            self.est1 = ph0[0]["estimate"]
        ctx.broadcast("PH0", round=round_number, estimate=self.est1)

        # -- Phase 1: lock a value or ⊥ -----------------------------------
        # Figure 9, Lines 23-24: a PH2 of this round short-circuits the phase.
        ph2 = self.messages("PH2", round_number)
        estimates = yield from self.quorum.gather(
            self, ctx, "PH1", round_number, self.est1, lambda: bool(ph2)
        )
        if self.decided:
            return
        est2 = ph2[0]["estimate"] if estimates is None else self.quorum.lock(estimates)

        # -- Phase 2: decide, adopt, or keep ------------------------------
        # Figure 9, Lines 43-44: somebody already started the next round.
        next_coord = self.messages("COORD", round_number + 1)
        estimates = yield from self.quorum.gather(
            self, ctx, "PH2", round_number, est2, lambda: bool(next_coord)
        )
        if self.decided or estimates is None:
            return
        received = set(estimates)
        non_bottom = received - {BOTTOM}
        if len(non_bottom) == 1:
            value = next(iter(non_bottom))
            if received == non_bottom:
                # Line 32 / 51: every received estimate is the same non-⊥ value.
                self.decide(ctx, value)
                return
            # Line 33 / 52: both v and ⊥ were received — adopt v for the next round.
            self.est1 = value
        # Line 34 / 53: only ⊥ received — keep the current estimate.

    # ------------------------------------------------------------------
    # Deciding (Line 32 of Figure 8, Line 51 of Figure 9, and Task T2)
    # ------------------------------------------------------------------
    def decide(self, ctx: ProcessContext, value: Any) -> None:
        """Decide ``value``: relay it and stop participating in new rounds."""
        if self.decided:
            return
        ctx.broadcast("DECIDE", value=value)
        self.decided = True
        self.decided_value = value
        ctx.decide(value)
        if self.record_outputs:
            ctx.record(KEYS.DECIDED_ROUND, self.round)

    def _on_decide(self, ctx: ProcessContext, message: Message) -> None:
        # Task T2: forward the decision once, then adopt it.
        self.decide(ctx, message["value"])

    def describe(self) -> str:
        return self.description or type(self).__name__
