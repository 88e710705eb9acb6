"""Sparse monitoring must stay cheap per event *and* behave exactly as before.

The ring and gossip monitors run at n=1000, so the per-tick / per-message host
cost of choosing targets and merging the liveness table may not scan the
membership view.  These tests pin both halves of that contract:

* the bisect/slice target computations in :mod:`repro.topology` equal the
  original scan-the-view definitions (kept here as the reference), including
  the RNG draws gossip makes;
* ``ring_successors`` reads O(k + log n) view entries (counted, not timed);
* one small ring, gossip and mesh detection run each reproduce the digest,
  copy count and every declaration recorded on the commit before the change;
* the gossip table travels as an immutable snapshot, and rumours about a
  declared peer neither revive it nor declare it twice.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence
from math import ceil, log2

from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.heartbeat import DECLARED_DEAD, GossipHeartbeat
from repro.context import AbstractProcessContext
from repro.detectors.properties import CheckResult
from repro.runtime import (
    Engine,
    asynchronous,
    crashes_at,
    gossip,
    register_check,
    ring,
    scenario,
)
from repro.sim.message import Message
from repro.topology import FullMesh, Gossip, ring_successors


# ----------------------------------------------------------------------
# Reference definitions: the view scans the fast versions replaced
# ----------------------------------------------------------------------
def _others(index, members):
    return [member for member in members if member != index]


def _ring_successors_by_scan(index, members, k):
    others = _others(index, members)
    if not others or k <= 0:
        return ()
    if k >= len(others):
        return tuple(others)
    start = bisect_right(others, index)
    return tuple(others[(start + offset) % len(others)] for offset in range(k))


def _gossip_targets_by_scan(fanout, index, members, rng):
    others = _others(index, members)
    if len(others) <= fanout:
        return tuple(others)
    return tuple(sorted(rng.sample(others, fanout)))


_views = st.lists(st.integers(0, 60), unique=True, max_size=40).map(sorted)


class TestTargetSetsEqualTheScanDefinitions:
    # Views are short and indices range past both ends, so the examples cover
    # the empty view, index absent, k <= 0 and k >= len(others) on their own.
    @given(members=_views, index=st.integers(-2, 62), k=st.integers(-1, 45))
    def test_ring_successors(self, members, index, k):
        assert ring_successors(index, members, k) == _ring_successors_by_scan(index, members, k)
        assert ring_successors(index, tuple(members), k) == ring_successors(index, members, k)

    @given(
        members=_views,
        index=st.integers(-2, 62),
        fanout=st.integers(1, 45),
        seed=st.integers(0, 2**32),
    )
    def test_gossip_targets_make_identical_draws(self, members, index, fanout, seed):
        fast_rng, scan_rng = random.Random(seed), random.Random(seed)
        fast = Gossip(fanout=fanout).gossip_targets(index, members, fast_rng)
        assert fast == _gossip_targets_by_scan(fanout, index, members, scan_rng)
        assert fast_rng.getstate() == scan_rng.getstate()

    @given(members=_views, index=st.integers(-2, 62))
    def test_watch_everyone_targets(self, members, index):
        everyone_else = tuple(_others(index, members))
        view = list(members)
        assert FullMesh().monitor_targets(index, view) == everyone_else
        assert Gossip(fanout=2).monitor_targets(index, view) == everyone_else
        assert view == members  # the caller's view is never edited


class _CountingView(Sequence):
    """A sorted view that counts every element read out of it."""

    def __init__(self, items):
        self._items = items
        self.reads = 0

    def __len__(self):
        return len(self._items)

    def __getitem__(self, at):
        got = self._items[at]
        self.reads += len(got) if isinstance(at, slice) else 1
        return got


class TestRingSuccessorsNeverScanTheView:
    def test_reads_are_bounded_by_k_plus_log_n(self):
        n, k = 10_000, 3
        members = list(range(0, 2 * n, 2))  # even indices: odd ones are absent
        budget = k + 2 * ceil(log2(n)) + 4
        for index in (members[0], members[n // 2], members[-1], 4321, -1, 2 * n + 1):
            view = _CountingView(members)
            assert ring_successors(index, view, k) == _ring_successors_by_scan(index, members, k)
            assert view.reads <= budget, (index, view.reads, budget)


# ----------------------------------------------------------------------
# Pinned behaviour: recorded on abc01e4, the commit before the fast paths
# ----------------------------------------------------------------------
def _all_declarations(trace, pattern):
    rows = sorted(
        (process.index, str(record.value), record.time)
        for process in pattern.membership.processes
        for record in trace.records_of(process, DECLARED_DEAD)
    )
    return CheckResult(ok=True, details={"metrics": {"rows": [list(row) for row in rows]}})


register_check("test_all_declarations", _all_declarations, overwrite=True)


def _pinned_run(topology, n, hb_timeout):
    build = (
        scenario(f"pinned-n{n}")
        .processes(n)
        .unique_ids()
        .timing(asynchronous(min_latency=0.01, max_latency=0.2))
        .crashes(crashes_at({n - 1: 10.0}))
        .program("heartbeat", hb_interval=1.0, hb_timeout=hb_timeout)
        .check("test_all_declarations")
        .horizon(10.0 + hb_timeout + 8.0)
        .seed(5)
    )
    if topology is None:
        build = build.check("hb_detection")
        check = "hb_detection"
    else:
        build = build.topology(topology).check("topo_detection")
        check = "topo_detection"
    record = Engine().run(build.build())
    return (
        record.digest,
        [
            (key.removeprefix(f"{check}_"), value)
            for key, value in record.metrics.items()
            if key.startswith(check)
        ],
        record.metrics["test_all_declarations_rows"],
    )


def _verdict(latency, copies_sent, end_time, **extra):
    """The check's whole metric set (keys, order and values), as 9ab9472 reports it."""
    return [
        ("ok", True),
        ("time", latency),
        ("detected", 1),
        ("missed", 0),
        *extra.items(),
        ("median_latency", latency),
        ("copies_sent", copies_sent),
        ("end_time", end_time),
    ]


# (digest, the check's metrics, [[observer index, declared, time], ...])
PINNED_RING = (
    "2c8932d93faae0fe",
    _verdict(6.0, 4311, 24.0, false_suspicions=0),
    [[26, "29", 16.0], [27, "29", 16.0], [28, "29", 16.0]],
)
_GOSSIP_TIMES = [21, 21, 20, 21, 21, 20, 22, 22, 21, 20, 21, 20, 20, 20, 20]
_GOSSIP_TIMES += [21, 19, 21, 22, 20, 21, 19, 22, 21, 19, 21, 21, 21, 22]
PINNED_GOSSIP = (
    "995d488ac0b70d6a",
    _verdict(9.0, 2382, 26.0, false_suspicions=0),
    [[observer, "29", float(when)] for observer, when in enumerate(_GOSSIP_TIMES)],
)
PINNED_MESH = (
    "68df8cd1e04f4fe3",
    _verdict(6.0, 5106, 24.0),
    [[observer, "id5", 16.0] for observer in range(5)],
)


class TestSimulatedBehaviourIsPinned:
    def test_ring_n30_k3(self):
        assert _pinned_run(ring(successors=3), 30, 6.0) == PINNED_RING

    def test_gossip_n30_fanout3(self):
        assert _pinned_run(gossip(fanout=3), 30, 8.0) == PINNED_GOSSIP

    def test_mesh_n6(self):
        assert _pinned_run(None, 6, 6.0) == PINNED_MESH


# ----------------------------------------------------------------------
# The gossip table on the wire
# ----------------------------------------------------------------------
class _StubContext(AbstractProcessContext):
    """Just enough context to drive one monitor by hand."""

    def __init__(self):
        self.time = 0.0
        self.handlers = {}
        self.tasks = []
        self.sent: list[Message] = []
        self.records = []
        self._rng = random.Random(1)

    now = property(lambda self: self.time)
    random = property(lambda self: self._rng)

    def on(self, kind, handler):
        self.handlers[kind] = handler

    def spawn(self, task, *, name=""):
        self.tasks.append(task())

    def multicast(self, kind, targets, **fields):
        self.sent.append(Message(kind, fields))

    def record(self, key, value):
        self.records.append((self.time, key, value))


def _started_monitor(index, n=5, hb_timeout=3.0):
    ctx = _StubContext()
    monitor = GossipHeartbeat(
        topology=Gossip(fanout=2),
        index=index,
        peers=tuple(range(n)),
        hb_interval=1.0,
        hb_timeout=hb_timeout,
    )
    monitor.setup(ctx)
    (task,) = ctx.tasks
    next(task)  # the first period: bump, gossip, sleep
    return monitor, ctx, task


class TestGossipTableOnTheWire:
    def test_the_shipped_table_is_an_immutable_snapshot(self):
        sender, sender_ctx, _ = _started_monitor(0)
        (message,) = sender_ctx.sent
        shipped = message["counters"]
        assert isinstance(shipped, tuple)  # also what survives JSON framing by position
        before = tuple(shipped)
        sender.counters[0] += 7
        sender.counters[3] = 99
        assert message["counters"] == before

        receiver, receiver_ctx, _ = _started_monitor(1)
        receiver_ctx.time = 0.5
        receiver_ctx.handlers["GOSSIP"](message)
        assert receiver.counters[0] == before[0] == 1
        assert receiver.counters[3] == 0
        assert receiver.last_bump[0] == 0.5

    def test_a_rumour_about_a_declared_peer_neither_revives_nor_redeclares(self):
        monitor, ctx, task = _started_monitor(0, hb_timeout=3.0)
        fresh = [5, 5, 5, 5, 0]  # everyone but index 4 keeps rising
        for now in (1.0, 2.0, 3.0):
            ctx.time = now
            fresh = [counter + 1 for counter in fresh[:4]] + [0]
            ctx.handlers["GOSSIP"](Message("GOSSIP", {"frm": 1, "counters": tuple(fresh)}))
            next(task)
        declared = [(when, value) for when, key, value in ctx.records if key == DECLARED_DEAD]
        assert declared == [(3.0, 4)]
        assert monitor.alive == [0, 1, 2, 3]
        frozen = monitor.counters[4]

        rumour = tuple(fresh[:4]) + (frozen + 50,)
        for now in (4.0, 5.0, 6.0, 7.0, 8.0):
            ctx.time = now
            ctx.handlers["GOSSIP"](Message("GOSSIP", {"frm": 1, "counters": rumour}))
            rumour = tuple(counter + 1 for counter in rumour)
            next(task)
        assert monitor.counters[4] == frozen  # not relayed onwards either
        assert 4 not in monitor.alive
        assert [entry for entry in ctx.records if entry[1] == DECLARED_DEAD] == [
            (3.0, DECLARED_DEAD, 4)
        ]
