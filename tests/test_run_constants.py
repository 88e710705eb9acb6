"""What a run fixes is computed once; what an event changes is counted.

The failure pattern is fixed for a run, so ``Correct``, ``I(Correct)`` and
every oracle's eventual output are constants of it, "every correct process
has decided" can only flip at a ``decide``, "every client has finished" only
at a reply, and only a blocked task needs its predicate looked at.  The code
resolves each of these once (or counts them) instead of re-deriving them after
every event.  These tests pin both halves of that contract:

* the resolved values equal the original per-read expressions (kept here as
  the reference definitions), at every step of a clock walked across two noise
  windows and the stabilization time, and at every prefix of the decisions;
* the work is really gone — same object on two reads, one ``stable_draw`` per
  (process, window), one predicate per delivery, one ``on_finished`` per
  client — counted, not timed.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import ProcessProgram
from repro.detectors import CLASSES, table
from repro.detectors.base import stable_draw
from repro.errors import ConfigurationError
from repro.identity import ProcessId
from repro.membership import Membership, grouped_identities, unique_identities
from repro.runtime import scenario
from repro.sim import AsynchronousTiming, Clock, CrashSchedule, Simulation, build_system
from repro.sim.failures import FailurePattern
from repro.sim.message import Message
from repro.workloads.kv import ClientLoad
from repro.workloads.kv.clients import KVClientProgram
from repro.workloads.kv.runner import execute_kv_spec

from .helpers import make_services


# ----------------------------------------------------------------------
# Reference definitions: the per-read expressions the constants replaced
# ----------------------------------------------------------------------
def _faulty_by_scan(schedule):
    return frozenset(event.process for event in schedule.events)


def _correct_by_scan(membership, schedule):
    return frozenset(membership.processes) - _faulty_by_scan(schedule)


def _correct_identities_by_scan(membership, schedule):
    return membership.identity_multiset(sorted(_correct_by_scan(membership, schedule)))


def _all_correct_decided_by_scan(trace, membership, schedule):
    decisions = trace.decisions
    return all(process in decisions for process in _correct_by_scan(membership, schedule))


class _Idle(ProcessProgram):
    def setup(self, ctx):
        pass


@st.composite
def _runs(draw):
    """(membership, crash schedule, a decision order over any subset of Π)."""
    identities = draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=7))
    membership = Membership.of(identities)
    processes = list(membership.processes)
    faulty = draw(st.lists(st.sampled_from(processes), unique=True, max_size=len(processes) - 1))
    schedule = CrashSchedule.at_times({process: 1.0 + process.index for process in faulty})
    deciders = draw(st.lists(st.sampled_from(processes), unique=True))
    return membership, schedule, deciders


class TestTheFailurePatternIsResolvedOnce:
    @given(run=_runs())
    def test_constants_equal_the_scan_definitions(self, run):
        membership, schedule, _ = run
        pattern = FailurePattern(membership, schedule)
        assert schedule.faulty == pattern.faulty == _faulty_by_scan(schedule)
        assert pattern.correct == _correct_by_scan(membership, schedule)
        assert pattern.correct_identity_multiset() == _correct_identities_by_scan(
            membership, schedule
        )
        assert pattern.max_faulty == len(schedule.events)
        for process in membership.processes:
            expected = next((e.time for e in schedule.events if e.process == process), None)
            assert schedule.crash_time(process) == pattern.crash_time(process) == expected
        # The same object on two reads: nothing is rebuilt on the per-event path.
        assert pattern.correct is pattern.correct
        assert pattern.faulty is schedule.faulty is schedule.faulty
        assert pattern.correct_identity_multiset() is pattern.correct_identity_multiset()

    @settings(max_examples=60, deadline=None)
    @given(run=_runs())
    def test_all_correct_decided_at_every_prefix_of_the_decisions(self, run):
        membership, schedule, deciders = run
        simulation = Simulation(
            build_system(
                membership=membership,
                timing=AsynchronousTiming(),
                program_factory=lambda pid, identity: _Idle(),
                crash_schedule=schedule,
            )
        )
        assert simulation.failure_pattern is simulation.system.failure_pattern()
        trace = simulation.trace
        assert simulation.all_correct_decided() == _all_correct_decided_by_scan(
            trace, membership, schedule
        )
        for at, process in enumerate(deciders):
            trace.record_decision(process, f"v{process.index}", float(at))
            trace.record_decision(process, "a relayed decision is not a second one", at + 0.5)
            assert simulation.all_correct_decided() == _all_correct_decided_by_scan(
                trace, membership, schedule
            )

    def test_a_faulty_decider_does_not_stand_in_for_a_correct_one(self):
        membership = Membership.of(["A", "A", "B"])
        p0, p1, p2 = membership.processes
        simulation = Simulation(
            build_system(
                membership=membership,
                timing=AsynchronousTiming(),
                program_factory=lambda pid, identity: _Idle(),
                crash_schedule=CrashSchedule.at_times({p0: 5.0}),
            )
        )
        # p0 decides before it crashes: two decisions, two correct processes,
        # and still one correct process that has not decided.
        simulation.trace.record_decision(p0, "v", 1.0)
        simulation.trace.record_decision(p1, "v", 2.0)
        assert not simulation.all_correct_decided()
        simulation.trace.record_decision(p2, "v", 3.0)
        assert simulation.all_correct_decided()

    def test_an_empty_correct_set_cannot_be_built(self):
        membership = Membership.of(["A", "B"])
        everyone = CrashSchedule.at_times({process: 1.0 for process in membership.processes})
        with pytest.raises(ConfigurationError):
            FailurePattern(membership, everyone)
        with pytest.raises(ConfigurationError):
            build_system(
                membership=membership,
                timing=AsynchronousTiming(),
                program_factory=lambda pid, identity: _Idle(),
                crash_schedule=everyone,
            )


# ----------------------------------------------------------------------
# (b) Oracles: eventual outputs are constants, transient ones per window
# ----------------------------------------------------------------------
_STABILIZATION = 10.0
_NOISE_PERIOD = 4.0
#: Two full noise windows, the truncated third, the stabilization instant, after.
_TIMES = (0.0, 1.0, 3.9, 4.0, 5.5, 7.9, 8.0, 9.9, 10.0, 10.0, 11.0, 50.0)
_HOMONYMOUS = grouped_identities([3, 2, 1])
_UNIQUE = unique_identities(5)
_CRASHES = {ProcessId(1): 2.0, ProcessId(4): 6.0}
_LABELS = {"h": ("hΣ:all", "hΣ:correct"), "a": ("aΣ:all", "aΣ:correct")}


class _Parent:
    """What each oracle answered on the parent commit, as a function of ``now``."""

    def __init__(self, membership, pattern, now):
        self.membership, self.pattern, self.now = membership, pattern, now
        self.stabilized = now >= _STABILIZATION
        self.window = int(now / _NOISE_PERIOD)

    def _identities(self, members):
        return frozenset(self.membership.identity_of(other) for other in members)

    def diamond_hp(self, process):
        members = self.pattern.correct if self.stabilized else self.pattern.alive_at(self.now)
        return self.membership.identity_multiset(sorted(members))

    def homega(self, process):
        if self.stabilized:
            correct_ids = _correct_identities_by_scan(self.membership, self.pattern.schedule)
            leader = min(correct_ids.support(), key=repr)
            return leader, correct_ids.multiplicity(leader)
        all_ids = sorted(self.membership.identity_multiset().support(), key=repr)
        draw = stable_draw(process.index, self.window, "hΩ")
        return all_ids[draw % len(all_ids)], 1 + (draw // 7) % self.membership.size

    def hsigma_quora(self, process):
        pairs = {(_LABELS["h"][0], self.membership.identity_multiset())}
        if self.stabilized:
            pairs.add(
                (
                    _LABELS["h"][1],
                    _correct_identities_by_scan(self.membership, self.pattern.schedule),
                )
            )
        return frozenset(pairs)

    def hsigma_labels(self, process):
        labels = {_LABELS["h"][0]}
        if self.stabilized and self.pattern.is_correct(process):
            labels.add(_LABELS["h"][1])
        return frozenset(labels)

    def perfect(self, process):
        return self._identities(
            other
            for other in self.membership.processes
            if not self.pattern.is_alive_at(other, self.now)
        )

    def diamond_p(self, process):
        return self._identities(
            self.pattern.correct if self.stabilized else self.pattern.alive_at(self.now)
        )

    def omega(self, process):
        identity_of = self.membership.identity_of
        if self.stabilized:
            return sorted((identity_of(q) for q in self.pattern.correct), key=repr)[0]
        all_ids = sorted((identity_of(q) for q in self.membership.processes), key=repr)
        return all_ids[stable_draw(process.index, self.window, "Ω") % len(all_ids)]

    def sigma(self, process):
        return self._identities(
            self.pattern.correct if self.stabilized else self.membership.processes
        )

    def script_e(self, process):
        members = list(self.membership.processes)
        if self.stabilized:
            members.sort(key=lambda other: (not self.pattern.is_correct(other), other.index))
        else:
            members.sort(key=lambda other: stable_draw(process.index, self.window, other.index))
        return tuple(self.membership.identity_of(other) for other in members)

    def ap(self, process):
        alive = len(self.pattern.alive_at(self.now))
        if self.stabilized:
            return max(len(self.pattern.correct), alive)
        return min(self.membership.size, alive)

    def aomega(self, process):
        if self.stabilized:
            return process == min(self.pattern.correct)
        return bool(stable_draw(process.index, self.window, "aΩ") % 2)

    def asigma(self, process):
        pairs = {(_LABELS["a"][0], self.membership.size)}
        if self.stabilized and self.pattern.is_correct(process):
            pairs.add((_LABELS["a"][1], len(self.pattern.correct)))
        return frozenset(pairs)


#: registry name → (membership, {parent formula: view query}, stable_draw calls
#: per (process, window); ``None`` = never calls it).
_ORACLES = {
    "DiamondHP": (_HOMONYMOUS, {"diamond_hp": lambda v: v.h_trusted}, None),
    "HOmega": (_HOMONYMOUS, {"homega": lambda v: v.read()}, 1),
    "HSigma": (
        _HOMONYMOUS,
        {"hsigma_quora": lambda v: v.h_quora, "hsigma_labels": lambda v: v.h_labels},
        None,
    ),
    "Perfect": (_UNIQUE, {"perfect": lambda v: v.suspected}, None),
    "DiamondP": (_UNIQUE, {"diamond_p": lambda v: v.trusted}, None),
    "Omega": (_UNIQUE, {"omega": lambda v: v.leader}, 1),
    "Sigma": (_UNIQUE, {"sigma": lambda v: v.trusted}, None),
    "ScriptE": (_UNIQUE, {"script_e": lambda v: v.alive}, _UNIQUE.size),
    "AP": (_HOMONYMOUS, {"ap": lambda v: v.anap}, None),
    "AOmega": (_HOMONYMOUS, {"aomega": lambda v: v.a_leader}, 1),
    "ASigma": (_HOMONYMOUS, {"asigma": lambda v: v.a_sigma}, None),
}
#: Outputs that depend on who is alive *now* are recomputed on every read.
_TIME_DEPENDENT = {"Perfect", "AP"}


@pytest.fixture
def draws(monkeypatch):
    """Every ``stable_draw`` call the table's oracle values make, by argument tuple."""
    calls = []

    def counted(*parts):
        calls.append(parts)
        return stable_draw(*parts)

    monkeypatch.setattr(table, "stable_draw", counted)
    return calls


class TestOracleOutputsAreEventualOrPerWindow:
    def test_the_label_constants_are_the_oracles_own(self):
        assert table._labels("hΣ") == _LABELS["h"]
        assert table._labels("aΣ") == _LABELS["a"]

    def test_every_row_is_covered_and_the_time_dependent_ones_say_so(self):
        assert set(_ORACLES) == set(CLASSES)
        assert _TIME_DEPENDENT == {
            name for name, row in CLASSES.items() if row.transient is None
        }

    @pytest.mark.parametrize("name", _ORACLES)
    def test_every_query_equals_the_parent_formula(self, name, draws):
        membership, queries, draws_per_window = _ORACLES[name]
        schedule = CrashSchedule.at_times(_CRASHES)
        clock = Clock()
        services = make_services(membership, crash_schedule=schedule, clock=clock)
        oracle = CLASSES[name].oracle(
            services, stabilization_time=_STABILIZATION, noise_period=_NOISE_PERIOD
        )
        views = {process: oracle.view_for(process) for process in membership.processes}
        for now in _TIMES:
            clock.advance_to(now)
            parent = _Parent(membership, services.failure_pattern, now)
            for process, view in views.items():
                for formula, query in queries.items():
                    expected = getattr(parent, formula)(process)
                    first, second = query(view), query(view)
                    assert first == second == expected, (now, process, formula)
                    if now >= _STABILIZATION and name not in _TIME_DEPENDENT:
                        assert first is second, (now, process, formula)
        # Windows 0, 1 and the truncated 2 were each read several times by
        # every process: the sha256 ran once per (process, window) all the same.
        assert len(draws) == len(set(draws))
        assert len(draws) == (draws_per_window or 0) * membership.size * 3

    def test_an_eventual_output_is_resolved_at_the_first_stabilised_read_only(self):
        clock = Clock()
        oracle = CLASSES["HOmega"].oracle(
            make_services(_HOMONYMOUS, clock=clock), stabilization_time=_STABILIZATION
        )
        resolved, transient = [], []
        read = oracle.reader(
            lambda: resolved.append(clock.now) or "eventual",
            lambda: transient.append(clock.now) or "transient",
        )
        assert [read(), read()] == ["transient", "transient"]
        clock.advance_to(_STABILIZATION + 2.0)
        assert [read(), read(), read()] == ["eventual"] * 3
        assert resolved == [_STABILIZATION + 2.0] and transient == [0.0, 0.0]


# ----------------------------------------------------------------------
# (c) ``poke`` looks at blocked tasks, not at everything ever spawned
# ----------------------------------------------------------------------
class _ManyShortTasksOneBlocked(ProcessProgram):
    def __init__(self):
        self.finished = 0
        self.predicate_calls = 0

    def setup(self, ctx):
        for index in range(300):
            ctx.spawn(lambda index=index: self._short(ctx, index), name=f"short-{index}")
        ctx.spawn(lambda: self._blocked(ctx), name="blocked")

    def _short(self, ctx, index):
        yield ctx.sleep(0.01 * (index % 7))
        self.finished += 1

    def _never(self):
        self.predicate_calls += 1
        return False

    def _blocked(self, ctx):
        yield ctx.wait_until(self._never)


class TestPokeWorkIsProportionalToBlockedTasks:
    def _settled(self, crash_schedule=None):
        programs = {}

        def factory(pid, identity):
            programs[pid] = _ManyShortTasksOneBlocked()
            return programs[pid]

        simulation = Simulation(
            build_system(
                membership=Membership.of(["A", "B"]),
                timing=AsynchronousTiming(min_latency=0.1, max_latency=0.5),
                program_factory=factory,
                crash_schedule=crash_schedule,
            )
        )
        simulation.run(until=5.0)
        process = simulation.system.membership.processes[0]
        return simulation, simulation.runtimes[process], programs[process]

    def test_one_predicate_per_delivery_after_300_finished_tasks(self):
        simulation, runtime, program = self._settled()
        assert program.finished == 300
        assert [task.name for task in runtime._tasks] == ["blocked"]
        before = program.predicate_calls
        for _ in range(25):
            runtime.deliver(Message("ANYTHING", {}))
        assert program.predicate_calls == before + 25
        simulation.poke_all()
        assert program.predicate_calls == before + 26

    def test_a_crash_leaves_no_task_behind(self):
        crashed = ProcessId(0)
        simulation, runtime, program = self._settled(CrashSchedule.at_times({crashed: 0.02}))
        assert runtime.crashed and runtime._tasks == []
        assert 0 < program.finished < 300  # it was crashed mid-flight, not idle
        before = program.predicate_calls
        runtime.deliver(Message("ANYTHING", {}))
        runtime.poke()
        assert program.predicate_calls == before
        # The other process ran to completion next to it.
        survivor = simulation.runtimes[ProcessId(1)]
        assert [task.name for task in survivor._tasks] == ["blocked"]

    def test_resumptions_are_scheduled_in_spawn_order(self):
        """Live-only bookkeeping must not reorder what one poke wakes up."""
        woken = []

        class Program(ProcessProgram):
            def setup(self, ctx):
                self.gate = False
                for name in ("first", "done-early", "second", "third"):
                    ctx.spawn(lambda name=name: self._task(ctx, name), name=name)

            def _task(self, ctx, name):
                if name != "done-early":
                    yield ctx.wait_until(lambda: self.gate)
                woken.append(name)

        program = Program()
        simulation = Simulation(
            build_system(
                membership=Membership.of(["A"]),
                timing=AsynchronousTiming(),
                program_factory=lambda pid, identity: program,
            )
        )
        simulation.run(until=1.0)
        assert woken == ["done-early"]
        program.gate = True
        simulation.poke_all()
        simulation.run(until=2.0)
        assert woken == ["done-early", "first", "second", "third"]
        assert simulation.runtimes[ProcessId(0)]._tasks == []


# ----------------------------------------------------------------------
# (d) The KV stop condition counts unfinished clients
# ----------------------------------------------------------------------
def _kv_spec(**kv):
    options = dict(consensus="homega_majority", clients=3, ops_per_client=3, key_space=4)
    options.update(kv)
    return (
        scenario("kv-stop-condition")
        .homonyms([2, 2, 1])
        .detectors("HOmega", stabilization=10.0)
        .kv(**options)
        .horizon(600.0)
        .seed(0)
        .build()
    )


def _run_kv(monkeypatch, spec, *, poll_every_client):
    """Run ``spec``; optionally under the old ``all(client.finished …)`` predicate.

    Returns ``(record, events processed, on_finished firings per client,
    clients finished)``.
    """
    seen = {}
    original = Simulation.run

    def run(simulation, *, until, stop_when=None, **kwargs):
        clients = [
            runtime.program
            for runtime in simulation.runtimes.values()
            if isinstance(runtime.program, KVClientProgram)
        ]
        fired = seen["fired"] = dict.fromkeys((client.client_name for client in clients), 0)
        for client in clients:

            def counted(client=client, notify=client._on_finished):
                fired[client.client_name] += 1
                notify()

            client._on_finished = counted
        if poll_every_client:
            stop_when = lambda sim: all(client.finished for client in clients)  # noqa: E731
        try:
            return original(simulation, until=until, stop_when=stop_when, **kwargs)
        finally:
            seen["events"] = simulation.events_processed
            seen["finished"] = [client.finished for client in clients]

    with monkeypatch.context() as patch:
        patch.setattr(Simulation, "run", run)
        record = execute_kv_spec(spec)
    return record, seen["events"], seen["fired"], seen["finished"]


class TestTheKVStopConditionIsACounter:
    @pytest.mark.parametrize(
        "kv",
        [
            dict(loop="closed", think_time=1.0),
            dict(loop="open", rate=2.0),
            dict(loop="closed", think_time=0.0, clients=1, ops_per_client=5),
        ],
        ids=["closed", "open", "one-client"],
    )
    def test_stops_after_the_same_event_as_polling_every_client(self, monkeypatch, kv):
        spec = _kv_spec(**kv)
        counted, events, fired, finished = _run_kv(monkeypatch, spec, poll_every_client=False)
        polled, polled_events, _, _ = _run_kv(monkeypatch, spec, poll_every_client=True)
        assert (counted.digest, events) == (polled.digest, polled_events)
        assert counted.metrics == polled.metrics
        assert events > 0 and all(finished)
        assert counted.metrics["ops_completed"] == spec.kv.clients * spec.kv.ops_per_client
        # Five replicas answer every request: four duplicate replies per
        # operation reach the client, and none of them fires the callback again.
        assert fired == dict.fromkeys(fired, 1) and len(fired) == spec.kv.clients

    def test_clients_without_operations_are_never_counted(self, monkeypatch):
        spec = _kv_spec(ops_per_client=0)
        counted, events, fired, finished = _run_kv(monkeypatch, spec, poll_every_client=False)
        polled, polled_events, _, _ = _run_kv(monkeypatch, spec, poll_every_client=True)
        assert events == polled_events == 0 and counted.digest == polled.digest
        assert all(finished) and set(fired.values()) == {0}

    def test_a_duplicate_reply_is_ignored(self):
        fired = []
        client = KVClientProgram(
            client_name="c", load=ClientLoad(ops=1), on_finished=lambda: fired.append(True)
        )
        ctx = _ClientContext()
        client._issue(ctx, 0)
        assert not client.finished and not fired
        reply = {"request_id": "c:0", "status": "ok", "value": None, "version": 1}
        client._on_reply(ctx, reply)
        client._on_reply(ctx, reply)
        assert client.finished and fired == [True] and client.completed == 1


class _ClientContext:
    """The context members a client touches when issuing and completing."""

    def __init__(self):
        self.random = random.Random(0)

    def record(self, key, value):
        pass

    def broadcast(self, kind, **fields):
        pass
