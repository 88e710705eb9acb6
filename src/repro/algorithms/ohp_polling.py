"""Figure 6: implementation of ◇HP (and HΩ) in ``HPS[∅]``.

The algorithm is a polling protocol that runs in locally paced rounds:

* **Task T1** — at round ``r`` the process broadcasts ``POLLING(r, id(p))``,
  waits ``timeout`` time units, and then rebuilds ``h_trusted`` as the
  multiset of sender identifiers of the ``P_REPLY`` messages whose round
  interval covers ``r``.
* **Task T2** — on receiving ``POLLING(r_q, id(q))`` the process answers with
  a single ``P_REPLY`` covering every round of identifier ``id(q)`` it has not
  yet answered (one reply per *identifier*, not per process — homonyms share
  answers, which is exactly why the output is a multiset of identifiers).
  On receiving a ``P_REPLY`` addressed to its own identifier for an already
  finished round, the process increases ``timeout`` — the adaptive mechanism
  that eventually outlasts the unknown ``2δ`` bound (Lemma 5).

Corollary 2: setting ``h_leader`` to the smallest identifier of ``h_trusted``
and ``h_multiplicity`` to its multiplicity turns the same algorithm into an
HΩ implementation with no extra communication.  Both outputs are maintained
and recorded; :meth:`OhpPollingProgram.homega_view` and
:meth:`OhpPollingProgram.diamond_hp_view` expose them to co-located programs
(the "stacked" consensus configuration of experiment E8).
"""

from __future__ import annotations

from ..context import ProcessContext, ProcessProgram
from ..detectors.table import CLASSES
from ..detectors.views import View
from ..identity import Identity, IdentityMultiset
from ..sim.message import Message

__all__ = ["OhpPollingProgram"]

#: The trace keys of the emulated classes.
(_H_TRUSTED,) = CLASSES["DiamondHP"].keys
_H_LEADER, _H_MULTIPLICITY = CLASSES["HOmega"].keys


class OhpPollingProgram(ProcessProgram):
    """The Figure 6 polling algorithm (code for one process)."""

    def __init__(
        self,
        *,
        initial_timeout: float = 1.0,
        timeout_increment: float = 1.0,
        record_outputs: bool = True,
        detector_name: str | None = None,
        fixed_timeout: bool = False,
    ) -> None:
        """Configure the polling algorithm.

        ``fixed_timeout`` disables the adaptive timeout of Lines 33–34; it
        exists only for the E1 ablation that shows why adaptation is needed
        when δ is unknown.  ``detector_name``, when given, makes the program
        attach its HΩ view under that name at setup time, so a consensus
        program running on the same process can query it as a detector.
        """
        if initial_timeout <= 0:
            raise ValueError("the initial timeout must be positive")
        if timeout_increment < 0:
            raise ValueError("the timeout increment cannot be negative")
        self._initial_timeout = initial_timeout
        self._timeout_increment = timeout_increment
        self._record_outputs = record_outputs
        self._detector_name = detector_name
        self._fixed_timeout = fixed_timeout

        # Algorithm state (named after the paper's variables).
        self.h_trusted = IdentityMultiset()
        self.h_leader: Identity | None = None
        self.h_multiplicity: int = 0
        self.round: int = 1
        self.timeout: float = initial_timeout
        self._mship: set = set()
        self._latest_round_answered: dict = {}
        #: ``(round_low, round_high, sender identifier)`` of the replies to this
        #: process's identifier whose interval can still cover a round.
        self._replies: list[tuple[int, int, Identity]] = []

    # ------------------------------------------------------------------
    # Views (for stacked configurations)
    # ------------------------------------------------------------------
    def homega_view(self) -> View:
        """An HΩ view reading this program's current ``(h_leader, h_multiplicity)``."""
        return CLASSES["HOmega"].view(lambda: (self.h_leader, self.h_multiplicity))

    def diamond_hp_view(self) -> View:
        """A ◇HP view reading this program's current ``h_trusted``."""
        return CLASSES["DiamondHP"].view(lambda: self.h_trusted)

    # ------------------------------------------------------------------
    # Program wiring
    # ------------------------------------------------------------------
    def setup(self, ctx: ProcessContext) -> None:
        self.h_leader = ctx.identity  # sensible value until the first round completes
        self.h_multiplicity = 1
        if self._detector_name is not None:
            ctx.attach_detector(self._detector_name, self.homega_view())
        ctx.on("POLLING", lambda msg: self._on_polling(ctx, msg))
        ctx.on("P_REPLY", lambda msg: self._on_reply(ctx, msg))
        ctx.spawn(lambda: self._polling_task(ctx), name="ohp-polling")

    # ------------------------------------------------------------------
    # Task T1 — the polling rounds
    # ------------------------------------------------------------------
    def _polling_task(self, ctx: ProcessContext):
        while True:
            ctx.broadcast("POLLING", round=self.round, identity=ctx.identity)
            yield ctx.sleep(self.timeout)
            # ``round`` only grows, so a reply whose interval ends before it
            # can never cover a round again.
            live = [reply for reply in self._replies if reply[1] >= self.round]
            self._replies = live
            self.h_trusted = IdentityMultiset(
                sender for low, _, sender in live if low <= self.round
            )
            self._refresh_homega(ctx)
            if self._record_outputs:
                ctx.record(_H_TRUSTED, self.h_trusted)
                ctx.record(_H_LEADER, self.h_leader)
                ctx.record(_H_MULTIPLICITY, self.h_multiplicity)
                ctx.record("ohp.timeout", self.timeout)
                ctx.record("ohp.round", self.round)
            self.round += 1

    def _refresh_homega(self, ctx: ProcessContext) -> None:
        """Corollary 2: derive (h_leader, h_multiplicity) from h_trusted."""
        if self.h_trusted.is_empty():
            # No reply covered this round yet (possible before GST); fall back
            # to trusting at least oneself, as a real deployment would.
            self.h_leader = ctx.identity
            self.h_multiplicity = 1
            return
        self.h_leader = self.h_trusted.min_identity()
        self.h_multiplicity = self.h_trusted.multiplicity(self.h_leader)

    # ------------------------------------------------------------------
    # Task T2 — answering polls and adapting the timeout
    # ------------------------------------------------------------------
    def _on_polling(self, ctx: ProcessContext, message: Message) -> None:
        poll_round = message["round"]
        poller_identity = message["identity"]
        if poller_identity not in self._mship:
            self._mship.add(poller_identity)
            self._latest_round_answered[poller_identity] = 0
        if self._latest_round_answered[poller_identity] < poll_round:
            ctx.broadcast(
                "P_REPLY",
                round_low=self._latest_round_answered[poller_identity] + 1,
                round_high=poll_round,
                target_identity=poller_identity,
                sender_identity=ctx.identity,
            )
        self._latest_round_answered[poller_identity] = max(
            self._latest_round_answered[poller_identity], poll_round
        )

    def _on_reply(self, ctx: ProcessContext, message: Message) -> None:
        if message["target_identity"] != ctx.identity:
            # Replies addressed to other identifiers are irrelevant here (the
            # broadcast reaches everyone; only the named identifier uses it).
            return
        self._replies.append(
            (message["round_low"], message["round_high"], message["sender_identity"])
        )
        if message["round_low"] < self.round and not self._fixed_timeout:
            # Lines 33-34: an outdated reply (one whose interval starts before
            # the current round) means the timeout was too short.
            self.timeout += self._timeout_increment

    def describe(self) -> str:
        return "Figure-6 ◇HP/HΩ polling"
