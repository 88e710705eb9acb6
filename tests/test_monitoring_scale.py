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
  declared peer neither revive it nor declare it twice;
* every sparse program of a run shares the engine's one peer tuple, and a
  declaration moves the declaring monitor to a view interned by content, so
  monitors whose views are equal hold one tuple; building a ring run costs
  the same bytes per process at n=1000 as at n=250, and a whole ring run
  reads about as many view entries per message copy at n=1000 as at n=100;
* a process's random stream is made on its first draw: ring, mesh and
  consensus runs make none, a gossip run one per process that gossiped.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from bisect import bisect_right
from collections.abc import Sequence
from math import ceil, log2
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.heartbeat import DECLARED_DEAD, GossipHeartbeat
from repro.context import ProcessContext
from repro.detectors.properties import CheckResult
from repro.runtime import (
    Engine,
    asynchronous,
    crashes_at,
    full_mesh,
    gossip,
    register_check,
    ring,
    scenario,
    simulate_spec,
)
from repro.sim.message import Message
from repro.sim.scheduler import Simulation
from repro.topology import FullMesh, Gossip, ring_successors
from repro.workloads.churn import churn_spec


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
        (process.index, str(target), time)
        for process in pattern.membership.processes
        for time, target in trace.records_of(process, DECLARED_DEAD)
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
    """The check's whole metric set (keys, order and values), as 9ab9472 reports it,
    plus the violation count every check folds."""
    return [
        ("ok", True),
        ("time", latency),
        ("violations", 0),
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
class _StubRuntime:
    """Just enough runtime to drive one monitor by hand through a real context."""

    def __init__(self):
        self.clock = SimpleNamespace(now=0.0)
        self.rng = random.Random(1)
        self.handlers = {}
        self.tasks = []
        self.sent: list[Message] = []
        self.records = []
        self.context = ProcessContext(self)

    def register_handler(self, kind, handler):
        self.handlers[kind] = handler

    def spawn_task(self, task, *, name):
        self.tasks.append(task())

    def multicast(self, message, targets):
        self.sent.append(message)

    def record(self, key, value):
        self.records.append((self.clock.now, key, value))


def _started_monitor(index, n=5, hb_timeout=3.0):
    node = _StubRuntime()
    monitor = GossipHeartbeat(
        topology=Gossip(fanout=2),
        index=index,
        peers=tuple(range(n)),
        hb_interval=1.0,
        hb_timeout=hb_timeout,
    )
    monitor.setup(node.context)
    (task,) = node.tasks
    next(task)  # the first period: bump, gossip, sleep
    return monitor, node, task


class TestGossipTableOnTheWire:
    def test_the_shipped_table_is_an_immutable_snapshot(self):
        sender, sender_node, _ = _started_monitor(0)
        (message,) = sender_node.sent
        shipped = message["counters"]
        assert isinstance(shipped, tuple)  # also what survives JSON framing by position
        before = tuple(shipped)
        sender.counters[0] += 7
        sender.counters[3] = 99
        assert message["counters"] == before

        receiver, receiver_node, _ = _started_monitor(1)
        receiver_node.clock.now = 0.5
        receiver_node.handlers["GOSSIP"](message)
        assert receiver.counters[0] == before[0] == 1
        assert receiver.counters[3] == 0
        assert receiver.last_bump[0] == 0.5

    def test_a_rumour_about_a_declared_peer_neither_revives_nor_redeclares(self):
        monitor, node, task = _started_monitor(0, hb_timeout=3.0)
        fresh = [5, 5, 5, 5, 0]  # everyone but index 4 keeps rising
        for now in (1.0, 2.0, 3.0):
            node.clock.now = now
            fresh = [counter + 1 for counter in fresh[:4]] + [0]
            node.handlers["GOSSIP"](Message("GOSSIP", {"frm": 1, "counters": tuple(fresh)}))
            next(task)
        declared = [(when, value) for when, key, value in node.records if key == DECLARED_DEAD]
        assert declared == [(3.0, 4)]
        assert list(monitor.alive) == [0, 1, 2, 3]
        frozen = monitor.counters[4]

        rumour = tuple(fresh[:4]) + (frozen + 50,)
        for now in (4.0, 5.0, 6.0, 7.0, 8.0):
            node.clock.now = now
            node.handlers["GOSSIP"](Message("GOSSIP", {"frm": 1, "counters": rumour}))
            rumour = tuple(counter + 1 for counter in rumour)
            next(task)
        assert monitor.counters[4] == frozen  # not relayed onwards either
        assert 4 not in monitor.alive
        assert [entry for entry in node.records if entry[1] == DECLARED_DEAD] == [
            (3.0, DECLARED_DEAD, 4)
        ]


# ----------------------------------------------------------------------
# One peer tuple per run
# ----------------------------------------------------------------------
_CRASH_AT = 10.0


def _detection_spec(topology, n, hb_timeout=8.0):
    return (
        scenario(f"shared-peers-n{n}")
        .processes(n)
        .unique_ids()
        .timing(asynchronous(min_latency=0.01, max_latency=0.2))
        .crashes(crashes_at({n - 1: _CRASH_AT}))
        .program("heartbeat", hb_interval=1.0, hb_timeout=hb_timeout)
        .topology(topology)
        .horizon(_CRASH_AT + hb_timeout + 8.0)
        .seed(3)
        .build()
    )


def _churn_spec(n):
    """E12's light churn (per 100 processes: 2 joins, 2 leaves, 2 flaps) plus one crash."""
    scale = max(1, n // 100)
    return churn_spec(
        n,
        topology="ring",
        degree=2,
        joins=2 * scale,
        leaves=2 * scale,
        flaps=2 * scale,
        crashes={n // 2: _CRASH_AT},
        horizon=30.0,
        seed=3,
    )


def _unstarted(spec, monkeypatch):
    """The simulation :func:`simulate_spec` builds for ``spec``, before it runs."""
    with monkeypatch.context() as patch:
        patch.setattr(Simulation, "run", lambda self, **_: self.trace)
        return simulate_spec(spec)


def _programs(simulation):
    return [runtime.program for runtime in simulation.runtimes.values()]


class TestOnePeerTuplePerRun:
    N = 12

    @pytest.mark.parametrize(
        "topology", [ring(successors=2), gossip(fanout=2)], ids=["ring", "gossip"]
    )
    def test_monitors_share_it_until_they_declare(self, topology, monkeypatch):
        spec = _detection_spec(topology, self.N)
        simulation = _unstarted(spec, monkeypatch)
        monitors = _programs(simulation)
        shared = monitors[0].alive
        assert type(shared) is tuple and shared == tuple(range(self.N))
        simulation.run(until=_CRASH_AT - 0.5)
        assert all(monitor.alive is shared for monitor in monitors)

        simulation.run(until=spec.horizon)
        victim = self.N - 1
        declared = [set(shared) - set(monitor.alive) for monitor in monitors]
        declaring = [monitor for monitor, dead in zip(monitors, declared) if dead]
        assert any(victim in dead for dead in declared)
        for monitor in declaring:
            assert type(monitor.alive) is tuple
        # Equal views are one object, so the run holds one view per content.
        interned = {}
        for monitor in monitors:
            assert interned.setdefault(monitor.alive, monitor.alive) is monitor.alive
        assert len({id(monitor.alive) for monitor in declaring}) < len(declaring)
        assert all(monitor.alive is shared for monitor, dead in zip(monitors, declared) if not dead)
        assert shared == tuple(range(self.N))

    def test_membership_programs_keep_it_as_given(self, monkeypatch):
        spec = _churn_spec(self.N)
        simulation = _unstarted(spec, monkeypatch)
        programs = _programs(simulation)
        shared = programs[0]._peers
        assert type(shared) is tuple and shared == tuple(range(self.N))
        simulation.run(until=_CRASH_AT - 0.5)
        assert all(program._peers is shared for program in programs)

        simulation.run(until=spec.horizon)
        assert any(
            entry[1] == "dead" for program in programs for entry in program.view.values()
        )
        assert all(program._peers is shared for program in programs)
        assert shared == tuple(range(self.N))


def _process_streams(simulation):
    return sorted(name for name in simulation.rng_streams._streams if name.startswith("process:"))


class TestAStreamIsMadeOnFirstDraw:
    """A process's ``random.Random`` (≈ 2.9 KB) exists only once it is drawn from."""

    N = 12

    @pytest.mark.parametrize("topology", [ring(successors=2), full_mesh()], ids=["ring", "mesh"])
    def test_a_ring_or_mesh_run_makes_none(self, topology):
        simulation = simulate_spec(_detection_spec(topology, self.N))
        trace = simulation.trace
        assert any(
            trace.records_of(process, DECLARED_DEAD) for process in trace.processes_with_records()
        )
        assert _process_streams(simulation) == []

    def test_a_consensus_run_makes_none(self):
        spec = (
            scenario("lazy-streams-consensus")
            .processes(4)
            .distinct_ids(2)
            .detectors("HOmega", stabilization=10.0)
            .consensus("homega_majority")
            .horizon(300.0)
            .seed(0)
            .build()
        )
        simulation = simulate_spec(spec)
        assert len(simulation.trace.decisions) == 4
        assert _process_streams(simulation) == []

    def test_a_gossip_run_makes_one_per_process_that_gossiped(self):
        simulation = simulate_spec(_detection_spec(gossip(fanout=2), self.N))
        gossiped = [
            runtime.process_id.index
            for runtime in simulation.runtimes.values()
            if runtime.program.counters[runtime.process_id.index] > 0
        ]
        assert len(gossiped) == self.N
        assert _process_streams(simulation) == sorted(f"process:{i}" for i in gossiped)

    def test_the_stream_is_one_object(self, monkeypatch):
        simulation = _unstarted(_detection_spec(ring(successors=2), self.N), monkeypatch)
        runtime = next(iter(simulation.runtimes.values()))
        ctx = runtime.context
        assert ctx.random is ctx.random
        assert ctx.random is simulation.rng_streams.stream(f"process:{runtime.process_id.index}")


class TestBuildMemoryIsLinear:
    """The memory half of the "ring is scale-free" rule: bytes per process of a built run.

    Gossip is left out on purpose: a gossip monitor ships its whole counter
    table each period, so its per-process table is O(n) by design.
    """

    @pytest.mark.parametrize(
        "spec_of",
        [lambda n: _detection_spec(ring(successors=3), n), _churn_spec],
        ids=["ring-heartbeat", "ring-churn"],
    )
    def test_bytes_per_process_do_not_grow_with_n(self, spec_of, monkeypatch):
        _unstarted(spec_of(12), monkeypatch)  # lazy imports stay out of the measurement
        per_process = {}
        for n in (250, 1000):
            spec = spec_of(n)
            gc.collect()
            tracemalloc.start()
            try:
                simulation = _unstarted(spec, monkeypatch)
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del simulation
            per_process[n] = held / n
        assert per_process[1000] <= 1.5 * per_process[250], per_process


class TestRingPerCopyWorkIsScaleFree:
    """The work half of the "ring is scale-free" rule, counted rather than timed.

    Every ring monitor of a run starts on the one shared peer tuple; swapping
    it for a :class:`_CountingView` counts each alive-view entry the monitors
    read during a whole detection run.  Per message copy sent, that count may
    grow with the bisect's log n but not with n: an O(n) scan back on the
    per-tick path (``ring_successors`` replaced by the scan definition) reads
    about ten times as much per copy at n=1000 as at n=100.
    """

    @staticmethod
    def _reads_per_copy(n, monkeypatch):
        spec = (
            scenario(f"ring-reads-n{n}")
            .processes(n)
            .unique_ids()
            .timing(asynchronous(min_latency=0.01, max_latency=0.2))
            .crashes(crashes_at({n - 1: 3.0}))
            .program("heartbeat", hb_interval=1.0, hb_timeout=3.0)
            .topology(ring(successors=3))
            .horizon(9.0)
            .seed(0)
            .build()
        )
        simulation = _unstarted(spec, monkeypatch)
        monitors = _programs(simulation)
        shared = monitors[0].alive
        assert all(monitor.alive is shared for monitor in monitors)
        view = _CountingView(shared)
        for monitor in monitors:
            monitor.alive = view
        trace = simulation.run(until=spec.horizon)
        reads = view.reads
        assert any(n - 1 not in monitor.alive for monitor in monitors if monitor.alive is not view)
        return reads / trace.message_copies_sent

    def test_reads_per_copy_do_not_grow_with_n(self, monkeypatch):
        per_copy = {n: self._reads_per_copy(n, monkeypatch) for n in (100, 1000)}
        assert per_copy[1000] <= 2.0 * per_copy[100], per_copy
