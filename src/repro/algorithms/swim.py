"""A dynamic cluster-membership program (join / leave / crash-recover).

This is the churn workload of the monitoring-topology layer:
a SWIM-flavoured membership service built from the same primitives as the
sparse heartbeat monitor, following the introducer-based join of SNIPPETS.md
Snippet 2:

* every member keeps a *view*: ``index → (incarnation, status, counter)``
  with status ``alive``/``left``/``dead``.  Views merge with the usual
  precedence — a higher incarnation wins outright; at equal incarnation
  ``dead`` > ``left`` > ``alive`` and heartbeat counters take the max;
* each period an active member bumps its own counter and sends
  ``M_PING(view)`` to the peers its topology selects (ring successors, or a
  seeded-random gossip fanout); receivers merge and answer ``M_ACK(view)``
  unicast, so state diffuses both ways;
* a *watched* peer (``topology.monitor_targets``) whose counter stops rising
  for ``hb_timeout`` is declared dead — recorded as ``declared_dead`` and
  marked in the view, which the merges then spread; non-watched peers adopt
  deaths by rumour only, never by their own timer (a ring only times out its
  successors, so propagation lag cannot cause false suspicions);
* a process that hears itself called dead or left at its own incarnation
  refutes by bumping its incarnation (the SWIM refutation rule);
* **join**: a late joiner sleeps until its scheduled join time, then asks an
  *introducer* for the current view (``M_JOIN`` → ``M_WELCOME``); if the
  introducer does not answer within ``join_timeout`` (it may have crashed),
  the joiner rotates deterministically through the founding members until one
  welcomes it;
* **leave**: a leaver announces ``M_LEAVE`` to its targets and goes quiet —
  views record it as ``left``, not suspected;
* **down/up**: a down window silences the process (handlers drop, the period
  task idles); recovery bumps the incarnation, which overrides the (correct)
  death rumour and re-admits the member everywhere.

The own churn slice is read from a plain schedule dict
(:meth:`repro.sim.failures.ChurnSchedule.to_dict` — passed through
``program_params``, keeping this module free of simulator imports per the
backend-portability lint).  Everything observable is emitted through
``ctx.record`` (``join_requested``, ``churn_join``, ``churn_leave``,
``churn_down``, ``churn_up``, ``declared_dead``), which is what the
``membership_churn`` check reconstructs its ground truth from.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..context import ProcessContext, ProcessProgram

__all__ = ["ClusterMembershipProgram"]

DECLARED_DEAD = "declared_dead"

ALIVE = "alive"
LEFT = "left"
DEAD = "dead"

#: Merge precedence at equal incarnation (higher wins).
_STATUS_RANK = {ALIVE: 0, LEFT: 1, DEAD: 2}


class ClusterMembershipProgram(ProcessProgram):
    """Topology-driven dynamic membership with introducer-based join.

    ``peers`` is the run's one sorted, duplicate-free index tuple, shared by
    every process: the program keeps it as given and never mutates it, and a
    declaration changes only this process's :attr:`view`.  The founding
    members (peers with no scheduled join) are derived from it where they are
    used, so a process stores no copy of the peer list.  ``views``, the run's
    alive-view table the engine hands every sparse program, is not used: this
    program's view is a status map, not a tuple of the alive.
    """

    def __init__(
        self,
        *,
        hb_interval: float = 1.0,
        hb_timeout: float = 6.0,
        topology: Any = None,
        index: int | None = None,
        peers: tuple[int, ...] = (),
        views: Any = None,
        churn: Mapping[str, Any] | None = None,
        introducer: int = 0,
        join_timeout: float | None = None,
    ) -> None:
        if hb_interval <= 0:
            raise ValueError("hb_interval must be positive")
        if hb_timeout <= 0:
            raise ValueError("hb_timeout must be positive")
        if topology is None or index is None or not peers:
            raise ValueError(
                "the membership program needs a sparse monitoring topology; "
                "run it with .topology(ring(...)) or .topology(gossip(...)) "
                "(the engine injects topology/index/peers)"
            )
        self._hb_interval = hb_interval
        self._hb_timeout = hb_timeout
        self._topology = topology
        self._index = index
        self._peers = peers
        self._introducer = introducer
        self._join_timeout = join_timeout if join_timeout is not None else 2 * hb_interval

        #: the run's schedule, shared like ``peers``; read, never edited.
        self._churn_events = (churn or {}).get("events", ())
        self._my_events = sorted(
            (dict(event) for event in self._churn_events if int(event["index"]) == index),
            key=lambda event: event["time"],
        )
        self._join_at = next(
            (event["time"] for event in self._my_events if event["kind"] == "join"), None
        )
        self._leave_at = next(
            (event["time"] for event in self._my_events if event["kind"] == "leave"), None
        )
        #: (start, end) down windows; end is None for a down that never recovers.
        self._down_windows: list[tuple[float, float | None]] = []
        for event in self._my_events:
            if event["kind"] == "down":
                self._down_windows.append((event["time"], None))
            elif event["kind"] == "up":
                start, _ = self._down_windows[-1]
                self._down_windows[-1] = (start, event["time"])

        self.incarnation = 0
        self.active = self._join_at is None
        self._down = False
        #: index → [incarnation, status, counter]
        self.view: dict[int, list] = {}
        #: index → time its counter last rose (only watched entries matter).
        self.last_bump: dict[int, float] = {}
        #: index → time we started watching it (fresh-window grace).
        self.watch_since: dict[int, float] = {}

    # ------------------------------------------------------------------
    def setup(self, ctx: ProcessContext) -> None:
        ctx.record(
            "churn_config",
            {"hb_interval": self._hb_interval, "hb_timeout": self._hb_timeout},
        )
        ctx.on("M_PING", lambda msg: self._on_ping(ctx, msg))
        ctx.on("M_ACK", lambda msg: self._on_ack(ctx, msg))
        ctx.on("M_JOIN", lambda msg: self._on_join(ctx, msg))
        ctx.on("M_WELCOME", lambda msg: self._on_welcome(ctx, msg))
        ctx.on("M_LEAVE", lambda msg: self._on_leave(ctx, msg))
        if self.active:
            now = ctx.now
            for founder in self._founders():
                self.view[founder] = [0, ALIVE, 0]
                self.last_bump[founder] = now
        ctx.spawn(lambda: self._life_task(ctx), name="membership-life")

    def _founders(self) -> Iterator[int]:
        """The peers with no scheduled join, in index order."""
        joiners = {
            int(event["index"]) for event in self._churn_events if event["kind"] == "join"
        }
        return (peer for peer in self._peers if peer not in joiners)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def alive_members(self) -> list[int]:
        """The indices this process currently believes are members."""
        members = [
            peer for peer, (_, status, _c) in self.view.items() if status == ALIVE
        ]
        if self._index not in members and self.active:
            members.append(self._index)
        return sorted(members)

    def _wire_view(self) -> dict[int, list]:
        view = {peer: list(entry) for peer, entry in self.view.items()}
        view[self._index] = [self.incarnation, ALIVE, view.get(self._index, [0, ALIVE, 0])[2]]
        return view

    def _merge_view(self, ctx: ProcessContext, incoming: Mapping[int, Any]) -> None:
        now = ctx.now
        for peer, entry in incoming.items():
            incarnation, status, counter = entry[0], entry[1], entry[2]
            if peer == self._index:
                # SWIM refutation: a rumour of our death (or departure) at our
                # current incarnation is overridden by incrementing it.
                if status != ALIVE and incarnation >= self.incarnation and self.active:
                    self.incarnation = incarnation + 1
                continue
            local = self.view.get(peer)
            if local is None:
                self.view[peer] = [incarnation, status, counter]
                self.last_bump[peer] = now
                continue
            if incarnation > local[0]:
                self.view[peer] = [incarnation, status, counter]
                self.last_bump[peer] = now
            elif incarnation == local[0]:
                if _STATUS_RANK[status] > _STATUS_RANK[local[1]]:
                    local[1] = status
                if counter > local[2]:
                    local[2] = counter
                    self.last_bump[peer] = now

    # ------------------------------------------------------------------
    # The lifecycle task
    # ------------------------------------------------------------------
    def _life_task(self, ctx: ProcessContext):
        if self._join_at is not None:
            yield ctx.sleep(self._join_at)
            ctx.record("join_requested", self._index)
            yield from self._join_loop(ctx)
            if not self.active:
                return  # ran out the horizon without a welcome
        while True:
            now = ctx.now
            if self._leave_at is not None and now >= self._leave_at:
                self._announce_leave(ctx)
                return
            window = self._current_down_window(now)
            if window is not None:
                yield from self._serve_down_window(ctx, window)
                continue
            self._period(ctx)
            yield ctx.sleep(self._hb_interval)
            self._check_staleness(ctx)

    def _join_loop(self, ctx: ProcessContext):
        candidates = [self._introducer] + [
            founder for founder in self._founders() if founder != self._introducer
        ]
        attempt = 0
        while not self.active:
            candidate = candidates[attempt % len(candidates)]
            ctx.multicast(
                "M_JOIN", (candidate,), frm=self._index, inc=self.incarnation
            )
            yield ctx.sleep(self._join_timeout)
            attempt += 1

    def _announce_leave(self, ctx: ProcessContext) -> None:
        targets = self._topology.gossip_targets(
            self._index, self.alive_members(), ctx.random
        )
        if targets:
            ctx.multicast("M_LEAVE", targets, frm=self._index, inc=self.incarnation)
        ctx.record("churn_leave", self._index)
        self.active = False

    def _current_down_window(self, now: float) -> tuple[float, float | None] | None:
        for start, end in self._down_windows:
            if start <= now and (end is None or now < end):
                return (start, end)
        return None

    def _serve_down_window(self, ctx: ProcessContext, window):
        start, end = window
        ctx.record("churn_down", self._index)
        self._down = True
        if end is None:
            # Never recovers: idle out the run without touching the network.
            while True:
                yield ctx.sleep(self._hb_timeout)
        yield ctx.sleep(end - ctx.now)
        self._down = False
        self.incarnation += 1
        ctx.record("churn_up", self._index)
        # Peers rightly declared us dead during the window; the bumped
        # incarnation refutes that on the next merges.

    def _period(self, ctx: ProcessContext) -> None:
        now = ctx.now
        own = self.view.setdefault(self._index, [self.incarnation, ALIVE, 0])
        own[0] = self.incarnation
        own[1] = ALIVE
        own[2] += 1
        members = self.alive_members()
        for watched in self._topology.monitor_targets(self._index, members):
            if watched not in self.watch_since:
                self.watch_since[watched] = now
        targets = self._topology.gossip_targets(self._index, members, ctx.random)
        if targets:
            ctx.multicast("M_PING", targets, frm=self._index, view=self._wire_view())

    def _check_staleness(self, ctx: ProcessContext) -> None:
        now = ctx.now
        for watched in self._topology.monitor_targets(self._index, self.alive_members()):
            entry = self.view.get(watched)
            if entry is None or entry[1] != ALIVE:
                continue
            seen = self.last_bump.get(watched, self.watch_since.get(watched, now))
            grace = self.watch_since.get(watched, seen)
            if now - max(seen, grace) >= self._hb_timeout:
                entry[1] = DEAD
                ctx.record(DECLARED_DEAD, watched)
                self.watch_since.pop(watched, None)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _receiving(self) -> bool:
        return self.active and not self._down

    def _on_ping(self, ctx: ProcessContext, message: Any) -> None:
        if not self._receiving():
            return
        self._merge_view(ctx, message["view"])
        ctx.multicast(
            "M_ACK", (message["frm"],), frm=self._index, view=self._wire_view()
        )

    def _on_ack(self, ctx: ProcessContext, message: Any) -> None:
        if not self._receiving():
            return
        self._merge_view(ctx, message["view"])

    def _on_join(self, ctx: ProcessContext, message: Any) -> None:
        if not self._receiving():
            return
        joiner = message["frm"]
        incarnation = message["inc"]
        local = self.view.get(joiner)
        if local is None or incarnation >= local[0]:
            self.view[joiner] = [incarnation, ALIVE, 0]
            self.last_bump[joiner] = ctx.now
        ctx.multicast("M_WELCOME", (joiner,), frm=self._index, view=self._wire_view())

    def _on_welcome(self, ctx: ProcessContext, message: Any) -> None:
        if self._down or self.active:
            return
        self._merge_view(ctx, message["view"])
        self.active = True
        ctx.record("churn_join", self._index)

    def _on_leave(self, ctx: ProcessContext, message: Any) -> None:
        if not self._receiving():
            return
        leaver = message["frm"]
        incarnation = message["inc"]
        local = self.view.get(leaver)
        if local is None or incarnation > local[0] or (
            incarnation == local[0] and _STATUS_RANK[LEFT] > _STATUS_RANK[local[1]]
        ):
            self.view[leaver] = [incarnation, LEFT, local[2] if local else 0]

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"cluster membership (interval={self._hb_interval}, "
            f"timeout={self._hb_timeout}, {self._topology.kind})"
        )
