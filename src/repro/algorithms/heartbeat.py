"""A backend-portable heartbeat failure monitor (HB_PING / HB_ACK).

This is the detection workload of the sim-vs-real validation harness (the
protocol follows the kv-2node-fd-spec recipe quoted in SNIPPETS.md Snippet 1):

* every ``hb_interval`` time units the process broadcasts
  ``HB_PING(identity)`` and then re-evaluates its suspicions;
* on receiving a ``HB_PING`` it answers with ``HB_ACK`` addressed to the
  pinger's identifier (broadcast; non-targets ignore it);
* ``last_ack[q]`` is updated **only** when an ``HB_ACK`` addressed to us
  arrives from ``q`` — a late ACK simply rescues ``q`` before the next check;
* once ``now − last_ack[q] ≥ hb_timeout`` the process declares ``q`` dead
  exactly once (a single ``dead_declared`` flag per peer, so duplicate
  declarations cannot happen at the source).

Membership is unknown (the paper's setting): peers are discovered from the
``HB_PING`` traffic itself, and a peer's liveness clock starts at discovery.

Since the monitoring-topology layer (:mod:`repro.topology`) there is one
monitor class per topology — :class:`FullMeshHeartbeat` (the protocol above,
digest-frozen), :class:`RingHeartbeat` and :class:`GossipHeartbeat` — and
:func:`HeartbeatMonitorProgram` picks the class once, from the topology passed
when the program is built (the engine injects it for non-full-mesh
scenarios); each class binds its own handlers.  The sparse monitors address
peers by *index* (the transport-level address a topology computes over)
rather than by identity, so declarations are recorded as indices; the
``topo_detection`` check consumes those.  The full-mesh monitor shares
nothing with them but the parameter validation — byte-identical broadcasts,
records, and RNG usage — which is what keeps every pre-topology digest stable.

A sparse run holds one peer list: ``peers`` is a single sorted,
duplicate-free tuple of indices per run, shared by every process's monitor,
and no program mutates it.  Each monitor's alive view starts as that tuple;
a declaration replaces the declaring monitor's view with a tuple interned in
the run's ``views`` table, so monitors whose views are equal hold one object.
Building n monitors costs O(n), not O(n²), and n survivors declaring the
same victim add one view, not n.

The program speaks only the :class:`~repro.context.ProcessContext`
protocol, so the *same object* runs on the discrete-event simulator and on
the asyncio/TCP transport backend.  Detection events are emitted through
``ctx.record`` under the same names the real backend logs to JSONL
(``declared_dead``), which is what lets one aggregator consume both.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from itertools import compress
from math import inf
from operator import gt
from typing import Any

from ..context import ProcessContext, ProcessProgram
from ..identity import Identity

__all__ = ["HeartbeatMonitorProgram", "FullMeshHeartbeat", "RingHeartbeat", "GossipHeartbeat"]

#: Trace-record / JSONL-event name for a (single) dead declaration.
DECLARED_DEAD = "declared_dead"


class _Heartbeat(ProcessProgram):
    """What the three monitors share: the interval/timeout knobs."""

    mode = ""  # the non-default topology kind, as ``describe()`` prints it

    def __init__(
        self, *, hb_interval: float = 1.0, hb_timeout: float = 3.0, record_pings: bool = False
    ) -> None:
        if hb_interval <= 0:
            raise ValueError("hb_interval must be positive")
        if hb_timeout <= 0:
            raise ValueError("hb_timeout must be positive")
        self._hb_interval = hb_interval
        self._hb_timeout = hb_timeout
        self._record_pings = record_pings

    def describe(self) -> str:
        mode = f", {self.mode}" if self.mode else ""
        return (
            f"heartbeat monitor (interval={self._hb_interval}, "
            f"timeout={self._hb_timeout}{mode})"
        )


class FullMeshHeartbeat(_Heartbeat):
    """Everyone pings everyone (the historical, digest-frozen monitor)."""

    def __init__(self, **knobs: Any) -> None:
        super().__init__(**knobs)
        #: identity -> time of the last HB_ACK addressed to us from it
        #: (initialised to the discovery time, the grace period of §4).
        self.last_ack: dict[Identity, float] = {}
        #: identities already declared dead (the single-declare flags).
        self.dead: set[Identity] = set()

    def setup(self, ctx: ProcessContext) -> None:
        ctx.on("HB_PING", lambda msg: self._on_ping(ctx, msg))
        ctx.on("HB_ACK", lambda msg: self._on_ack(ctx, msg))
        ctx.spawn(lambda: self._monitor_task(ctx), name="hb-monitor")

    def _monitor_task(self, ctx: ProcessContext):
        while True:
            ctx.broadcast("HB_PING", identity=ctx.identity)
            if self._record_pings:
                ctx.record("hb_ping_sent", ctx.identity)
            yield ctx.sleep(self._hb_interval)
            self._check_timeouts(ctx)

    def _check_timeouts(self, ctx: ProcessContext) -> None:
        now = ctx.now
        for identity, seen in self.last_ack.items():
            if identity in self.dead or identity == ctx.identity:
                continue
            if now - seen >= self._hb_timeout:
                self.dead.add(identity)
                ctx.record(DECLARED_DEAD, identity)

    def _on_ping(self, ctx: ProcessContext, message: Any) -> None:
        pinger = message["identity"]
        self._discover(ctx, pinger)
        ctx.broadcast("HB_ACK", target=pinger, identity=ctx.identity)

    def _on_ack(self, ctx: ProcessContext, message: Any) -> None:
        if message["target"] != ctx.identity:
            return
        responder = message["identity"]
        self._discover(ctx, responder)
        self.last_ack[responder] = ctx.now
        if self._record_pings:
            ctx.record("hb_ack_recv", responder)
        # A late ACK rescues an undeclared peer, but declarations are final
        # (the single dead_declared flag) — matching Snippet 1 §10.

    def _discover(self, ctx: ProcessContext, identity: Identity) -> None:
        if identity != ctx.identity and identity not in self.last_ack:
            self.last_ack[identity] = ctx.now


class _IndexedHeartbeat(_Heartbeat):
    """A sparse monitor: watches peer *indices* a topology picks from its alive view.

    ``peers`` is the run's one sorted, duplicate-free index tuple, shared by
    every process; the monitor keeps it as its initial :attr:`alive` view and
    never mutates it.  A declaration replaces this monitor's view with the
    tuple without the victim, interned by content in ``views`` (the run's
    table, shared like ``peers``; a monitor built without one keeps its own),
    so monitors whose views are equal hold one tuple and no view is edited.
    """

    def __init__(
        self,
        *,
        topology: Any,
        index: int | None = None,
        peers: tuple[int, ...] = (),
        views: dict[tuple[int, ...], tuple[int, ...]] | None = None,
        **knobs: Any,
    ) -> None:
        super().__init__(**knobs)
        if index is None or not peers:
            raise ValueError(
                "a sparse topology needs the process index and the peer "
                "index list (the engine injects both)"
            )
        self._topology = topology
        self._index = index
        #: indices this process still believes alive (including itself):
        #: the shared ``peers`` tuple until this monitor's first declaration,
        #: then the run's interned tuple for what is left.
        self.alive: Sequence[int] = peers
        self._views = {} if views is None else views

    def _declare_index_dead(self, ctx: ProcessContext, target: int) -> None:
        ctx.record(DECLARED_DEAD, target)
        alive = self.alive
        at = bisect_left(alive, target)
        if at < len(alive) and alive[at] == target:
            view = (*alive[:at], *alive[at + 1 :])
            self.alive = self._views.setdefault(view, view)


class RingHeartbeat(_IndexedHeartbeat):
    """Ping only the ``k`` ring successors over the local alive view; ACKs go back unicast.

    Snippet 2's knobs on one object: the successor count ``M`` is the
    topology's ``k``, the ping timeout is ``hb_timeout``, and *ring repair*
    is the shrinking :attr:`alive` view — after a declaration survivors adopt
    new successors, with a fresh timeout window.  Per-round load drops from
    n² pings + n³ ACK copies to ≈ 2·n·k copies.
    """

    mode = "ring"

    def __init__(self, **params: Any) -> None:
        super().__init__(**params)
        #: index -> time of the last unicast HB_ACK from it.
        self.last_ack_at: dict[int, float] = {}
        #: index -> time we started (re)watching it; a freshly adopted
        #: successor gets a full timeout window before it can be declared.
        self.watch_since: dict[int, float] = {}

    def setup(self, ctx: ProcessContext) -> None:
        ctx.on("HB_PING", lambda msg: self._on_ping(ctx, msg))
        ctx.on("HB_ACK", lambda msg: self._on_ack(ctx, msg))
        ctx.spawn(lambda: self._monitor_task(ctx), name="hb-ring-monitor")

    def monitor_targets(self) -> tuple[int, ...]:
        """The successors this process currently watches (its alive view)."""
        return self._topology.monitor_targets(self._index, self.alive)

    def _monitor_task(self, ctx: ProcessContext):
        while True:
            targets = self.monitor_targets()
            now = ctx.now
            for target in targets:
                if target not in self.watch_since:
                    self.watch_since[target] = now
            if targets:
                ctx.multicast("HB_PING", targets, frm=self._index)
                if self._record_pings:
                    ctx.record("hb_ping_sent", list(targets))
            yield ctx.sleep(self._hb_interval)
            self._check_timeouts(ctx, targets)

    def _check_timeouts(self, ctx: ProcessContext, targets) -> None:
        now = ctx.now
        for target in targets:
            seen = self.last_ack_at.get(target, self.watch_since.get(target, now))
            if now - seen >= self._hb_timeout:
                self._declare_index_dead(ctx, target)
                # The next monitor round recomputes successors over the
                # shrunken view (ring repair); newly adopted targets start a
                # fresh window through watch_since (set at adoption, not here).
                self.watch_since.pop(target, None)

    def _on_ping(self, ctx: ProcessContext, message: Any) -> None:
        pinger = message["frm"]
        ctx.multicast("HB_ACK", (pinger,), frm=self._index)

    def _on_ack(self, ctx: ProcessContext, message: Any) -> None:
        responder = message["frm"]
        self.last_ack_at[responder] = ctx.now
        if self._record_pings:
            ctx.record("hb_ack_recv", responder)


class GossipHeartbeat(_IndexedHeartbeat):
    """No pings: diffuse the heartbeat-counter table, declare on staleness.

    Each period the process bumps its own counter and sends its whole table
    to ``fanout`` seeded-random peers (≈ n·fanout table messages per period);
    a counter that stops rising for ``hb_timeout`` is declared dead.
    """

    mode = "gossip"

    def __init__(self, **params: Any) -> None:
        super().__init__(**params)
        size = self.alive[-1] + 1
        #: highest heartbeat counter seen, by peer index (dense: the table is
        #: shipped whole, as a tuple, and merged with one C-level compare).
        self.counters: list[int] = [0] * size
        #: time each peer's counter last rose; ``inf`` once the peer is
        #: declared dead (or for an index that names no peer), which is never
        #: stale and never overwritten — declarations are final.
        self.last_bump: list[float] = [inf] * size

    def setup(self, ctx: ProcessContext) -> None:
        now = ctx.now
        for peer in self.alive:
            self.last_bump[peer] = now
        ctx.on("GOSSIP", lambda msg: self._on_gossip(ctx, msg))
        ctx.spawn(lambda: self._gossip_task(ctx), name="hb-gossip")

    def _gossip_task(self, ctx: ProcessContext):
        while True:
            self.counters[self._index] += 1
            self.last_bump[self._index] = ctx.now
            targets = self._topology.gossip_targets(self._index, self.alive, ctx.random)
            if targets:
                ctx.multicast(
                    "GOSSIP", targets, frm=self._index, counters=tuple(self.counters)
                )
            yield ctx.sleep(self._hb_interval)
            self._check_staleness(ctx)

    def _check_staleness(self, ctx: ProcessContext) -> None:
        now = ctx.now
        last_bump = self.last_bump
        if now - min(last_bump) < self._hb_timeout:
            return  # nobody is stale: the common tick
        for peer in self.alive:  # a declaration replaces the view, never edits it
            if peer != self._index and now - last_bump[peer] >= self._hb_timeout:
                self._declare_index_dead(ctx, peer)
                last_bump[peer] = inf

    def _on_gossip(self, ctx: ProcessContext, message: Any) -> None:
        now = ctx.now
        theirs = message["counters"]
        mine = self.counters
        last_bump = self.last_bump
        for peer in compress(range(len(mine)), map(gt, theirs, mine)):
            if last_bump[peer] != inf:  # stale rumours cannot revive the declared
                mine[peer] = theirs[peer]
                last_bump[peer] = now


_SPARSE = {"ring": RingHeartbeat, "gossip": GossipHeartbeat}


def HeartbeatMonitorProgram(
    *,
    hb_interval: float = 1.0,
    hb_timeout: float = 3.0,
    record_pings: bool = False,
    topology: Any = None,
    index: int | None = None,
    peers: tuple[int, ...] = (),
    views: dict[tuple[int, ...], tuple[int, ...]] | None = None,
) -> ProcessProgram:
    """Build the heartbeat monitor for ``topology`` (none, or full mesh: the default).

    The one place the topology is looked at; ``index``, ``peers`` and
    ``views`` only mean something to a sparse monitor and are dropped for the full mesh.
    """
    knobs = {"hb_interval": hb_interval, "hb_timeout": hb_timeout, "record_pings": record_pings}
    if topology is None or topology.is_full_mesh:
        return FullMeshHeartbeat(**knobs)
    return _SPARSE[topology.kind](topology=topology, index=index, peers=peers, views=views, **knobs)
