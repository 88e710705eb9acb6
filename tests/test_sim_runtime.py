"""Integration tests for the process runtime, network, and simulation engine."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.identity import ProcessId
from repro.membership import anonymous_identities, unique_identities
from repro.sim import (
    AsynchronousTiming,
    CrashEvent,
    CrashSchedule,
    LinkModel,
    PartiallySynchronousTiming,
    ProcessProgram,
    Simulation,
    SynchronousTiming,
    SystemModel,
    build_system,
)


def p(index: int) -> ProcessId:
    return ProcessId(index)


class PingProgram(ProcessProgram):
    """Broadcasts one PING at start and records every PING it receives."""

    def setup(self, ctx):
        self.received = []
        ctx.on("PING", lambda msg: self.received.append(msg["sender_identity"]))
        ctx.spawn(lambda: self._main(ctx), name="main")

    def _main(self, ctx):
        ctx.broadcast("PING", sender_identity=ctx.identity)
        yield ctx.sleep(0.0)
        ctx.record("received_count", len(self.received))


class EchoCounterProgram(ProcessProgram):
    """Counts received HELLO messages and waits until it has seen `expected`."""

    def __init__(self, expected: int):
        self.expected = expected
        self.count = 0

    def setup(self, ctx):
        ctx.on("HELLO", self._on_hello)
        ctx.spawn(lambda: self._main(ctx), name="main")

    def _on_hello(self, msg):
        self.count += 1

    def _main(self, ctx):
        ctx.broadcast("HELLO")
        yield ctx.wait_until(lambda: self.count >= self.expected)
        ctx.record("saw_all", True)
        ctx.decide(self.count)


class PeriodicSenderProgram(ProcessProgram):
    """Broadcasts TICK every `period` time units, forever."""

    def __init__(self, period: float = 1.0):
        self.period = period

    def setup(self, ctx):
        ctx.spawn(lambda: self._loop(ctx), name="loop")

    def _loop(self, ctx):
        while True:
            ctx.broadcast("TICK", identity=ctx.identity)
            yield ctx.sleep(self.period)


class SyncRoundProgram(ProcessProgram):
    """Figure-7-style skeleton: broadcast an IDENT each synchronous step."""

    def __init__(self, rounds: int):
        self.rounds = rounds
        self.per_round_counts = []
        self._current = []

    def setup(self, ctx):
        ctx.on("IDENT", lambda msg: self._current.append(msg["identity"]))
        ctx.spawn(lambda: self._main(ctx), name="main")

    def _main(self, ctx):
        for _ in range(self.rounds):
            self._current = []
            ctx.broadcast("IDENT", identity=ctx.identity)
            yield ctx.next_synchronous_step()
            self.per_round_counts.append(len(self._current))
        ctx.record("per_round_counts", tuple(self.per_round_counts))


def run_system(membership, timing, factory, *, crash_schedule=None, until=100.0, seed=1,
               detectors=None, stop_when=None, model=None):
    system = build_system(
        membership=membership,
        timing=timing,
        program_factory=factory,
        crash_schedule=crash_schedule,
        detectors=detectors,
        seed=seed,
        model=model,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=until, stop_when=stop_when)
    return simulation, trace


class TestBroadcastDelivery:
    def test_every_process_receives_every_ping_including_its_own(self):
        membership = unique_identities(4)
        simulation, trace = run_system(
            membership,
            AsynchronousTiming(min_latency=0.1, max_latency=1.0),
            lambda pid, identity: PingProgram(),
            until=50.0,
        )
        for process in membership.processes:
            # 4 broadcasts x delivery to each process = each process gets 4 PINGs.
            program_received = trace.final_value(process, "received_count")
            # received_count is recorded right after start; count deliveries instead.
            assert program_received is not None
        assert trace.broadcasts_by_kind()["PING"] == 4
        assert trace.deliveries_by_kind()["PING"] == 16

    def test_receiver_cannot_identify_sender_beyond_payload(self):
        membership = anonymous_identities(3)
        simulation, trace = run_system(
            membership,
            AsynchronousTiming(max_latency=1.0),
            lambda pid, identity: PingProgram(),
            until=10.0,
        )
        # All payload identities are the shared anonymous identity.
        assert trace.deliveries_by_kind()["PING"] == 9

    def test_wait_until_unblocks_on_message_arrival(self):
        membership = unique_identities(3)
        simulation, trace = run_system(
            membership,
            AsynchronousTiming(min_latency=0.5, max_latency=2.0),
            lambda pid, identity: EchoCounterProgram(expected=3),
            until=50.0,
        )
        for process in membership.processes:
            assert trace.final_value(process, "saw_all") is True
            assert trace.decision_of(process).value == 3

    def test_stop_when_ends_run_early(self):
        membership = unique_identities(3)
        simulation, trace = run_system(
            membership,
            AsynchronousTiming(min_latency=0.5, max_latency=1.0),
            lambda pid, identity: EchoCounterProgram(expected=3),
            until=1000.0,
            stop_when=lambda sim: sim.all_correct_decided(),
        )
        assert trace.end_time < 1000.0
        assert simulation.all_correct_decided()

    def test_deterministic_for_fixed_seed(self):
        membership = unique_identities(4)
        _, first = run_system(
            membership,
            AsynchronousTiming(),
            lambda pid, identity: EchoCounterProgram(expected=4),
            seed=7,
        )
        _, second = run_system(
            membership,
            AsynchronousTiming(),
            lambda pid, identity: EchoCounterProgram(expected=4),
            seed=7,
        )
        assert {k: v.time for k, v in first.decisions.items()} == {
            k: v.time for k, v in second.decisions.items()
        }

    def test_different_seed_changes_latencies(self):
        membership = unique_identities(4)
        _, first = run_system(
            membership, AsynchronousTiming(), lambda pid, identity: EchoCounterProgram(4), seed=1
        )
        _, second = run_system(
            membership, AsynchronousTiming(), lambda pid, identity: EchoCounterProgram(4), seed=2
        )
        assert {k: v.time for k, v in first.decisions.items()} != {
            k: v.time for k, v in second.decisions.items()
        }


class TestCrashes:
    def test_crashed_process_stops_broadcasting(self):
        membership = unique_identities(3)
        schedule = CrashSchedule.at_times({p(0): 5.0})
        simulation, trace = run_system(
            membership,
            AsynchronousTiming(min_latency=0.1, max_latency=0.2),
            lambda pid, identity: PeriodicSenderProgram(period=1.0),
            crash_schedule=schedule,
            until=20.0,
        )
        # p0 broadcasts at t=0..5 (6 ticks, its tick at the crash instant still
        # goes out because crashes apply after same-time process activity); the
        # others broadcast at t=0..20 inclusive (21 ticks each).
        assert trace.broadcasts_by_kind()["TICK"] == 6 + 21 + 21
        assert trace.crashes[p(0)] == 5.0

    def test_crashed_process_ignores_deliveries_and_does_not_decide(self):
        membership = unique_identities(3)
        schedule = CrashSchedule.at_times({p(2): 0.1})
        simulation, trace = run_system(
            membership,
            AsynchronousTiming(min_latency=0.5, max_latency=1.0),
            lambda pid, identity: EchoCounterProgram(expected=2),
            crash_schedule=schedule,
            until=50.0,
        )
        assert not trace.decided(p(2))
        assert trace.decided(p(0)) and trace.decided(p(1))

    def test_partial_broadcast_on_crash(self):
        membership = unique_identities(4)
        # p0 crashes at exactly t=0, the moment it broadcasts; half the copies survive.
        schedule = CrashSchedule(
            (CrashEvent(p(0), 0.0, partial_broadcast_fraction=0.5),)
        )
        simulation, trace = run_system(
            membership,
            AsynchronousTiming(min_latency=0.1, max_latency=0.2),
            lambda pid, identity: PingProgram(),
            crash_schedule=schedule,
            until=10.0,
        )
        # 3 full broadcasts of 4 copies + 1 partial broadcast of 2 copies.
        assert trace.message_copies_sent == 3 * 4 + 2

    def test_cannot_crash_every_process(self):
        membership = unique_identities(2)
        with pytest.raises(ConfigurationError):
            run_system(
                membership,
                AsynchronousTiming(),
                lambda pid, identity: PingProgram(),
                crash_schedule=CrashSchedule.at_times({p(0): 1.0, p(1): 1.0}),
            )


class TestSynchronousSteps:
    def test_each_round_sees_all_alive_processes(self):
        membership = unique_identities(3)
        programs = {}

        def factory(pid, identity):
            programs[pid] = SyncRoundProgram(rounds=4)
            return programs[pid]

        simulation, trace = run_system(
            membership, SynchronousTiming(step=1.0), factory, until=10.0
        )
        for process in membership.processes:
            counts = trace.final_value(process, "per_round_counts")
            assert counts == (3, 3, 3, 3)

    def test_crashed_process_missing_from_later_rounds(self):
        membership = unique_identities(3)
        schedule = CrashSchedule.at_times({p(2): 1.5})

        simulation, trace = run_system(
            membership,
            SynchronousTiming(step=1.0),
            lambda pid, identity: SyncRoundProgram(rounds=4),
            crash_schedule=schedule,
            until=10.0,
        )
        for process in (p(0), p(1)):
            counts = trace.final_value(process, "per_round_counts")
            assert counts[0] == 3  # everyone participates in step 0
            assert counts[-1] == 2  # p2 is gone by the last step

    def test_next_sync_step_requires_synchronous_timing(self):
        membership = unique_identities(2)
        with pytest.raises(SimulationError):
            run_system(
                membership,
                AsynchronousTiming(),
                lambda pid, identity: SyncRoundProgram(rounds=1),
                until=5.0,
            )


class TestSystemModelValidation:
    def test_as_model_requires_unique_ids(self):
        with pytest.raises(ConfigurationError):
            build_system(
                membership=anonymous_identities(3),
                timing=AsynchronousTiming(),
                program_factory=lambda pid, identity: PingProgram(),
                model=SystemModel.AS,
            )

    def test_aas_model_requires_anonymous_ids(self):
        with pytest.raises(ConfigurationError):
            build_system(
                membership=unique_identities(3),
                timing=AsynchronousTiming(),
                program_factory=lambda pid, identity: PingProgram(),
                model=SystemModel.AAS,
            )

    def test_model_inferred_from_timing(self):
        system = build_system(
            membership=unique_identities(3),
            timing=PartiallySynchronousTiming(gst=5.0),
            program_factory=lambda pid, identity: PingProgram(),
        )
        assert system.model is SystemModel.HPS
        assert "HPS" in system.describe()

    def test_hss_requires_synchronous_timing(self):
        with pytest.raises(ConfigurationError):
            build_system(
                membership=unique_identities(3),
                timing=AsynchronousTiming(),
                program_factory=lambda pid, identity: PingProgram(),
                model=SystemModel.HSS,
            )

    def test_has_rejects_synchronous_timing(self):
        with pytest.raises(ConfigurationError):
            build_system(
                membership=unique_identities(3),
                timing=SynchronousTiming(),
                program_factory=lambda pid, identity: PingProgram(),
                model=SystemModel.HAS,
            )


class TestPartialSynchrony:
    def test_messages_after_gst_arrive_within_delta(self):
        membership = unique_identities(3)
        timing = PartiallySynchronousTiming(gst=0.0, delta=1.0, min_latency=0.1)
        simulation, trace = run_system(
            membership,
            timing,
            lambda pid, identity: EchoCounterProgram(expected=3),
            until=20.0,
        )
        for process in membership.processes:
            decision = trace.decision_of(process)
            assert decision.time <= 2.0  # broadcast at 0, delivery <= delta

    def test_messages_before_gst_can_be_lost(self):
        membership = unique_identities(2)
        timing = PartiallySynchronousTiming(
            gst=1_000.0, delta=1.0, pre_gst_loss=1.0, pre_gst_max_latency=2_000.0
        )
        simulation, trace = run_system(
            membership,
            timing,
            lambda pid, identity: PingProgram(),
            until=10.0,
        )
        assert trace.message_copies_delivered == 0


class TestPerEventChecks:
    """What the engine verifies for every copy and every event, whatever path
    the copy took into the queue."""

    class _Early(AsynchronousTiming):
        def delivery_time(self, sender, receiver, sent_at, rng):
            return sent_at - 0.5

        def delivery_times(self, sender, receivers, sent_at, rng):
            return [sent_at - 0.5 for _ in receivers]

    class _EarlyLinks(LinkModel):
        def deliveries(self, sender, receiver, sent_at, times, rng):
            return (sent_at - 0.25,)

        def describe(self) -> str:
            return "early"

    @pytest.mark.parametrize("debug", [False, True], ids=["default", "debug-labels"])
    def test_a_delivery_before_its_send_time_names_the_model_at_fault(self, debug):
        def run(timing, links):
            system = build_system(
                membership=unique_identities(2),
                timing=timing,
                links=links,
                program_factory=lambda pid, identity: PeriodicSenderProgram(period=1.0),
                debug=debug,
            )
            Simulation(system).run(until=5.0)

        with pytest.raises(SimulationError, match="timing model produced a delivery before"):
            run(self._Early(), None)
        with pytest.raises(SimulationError, match="link model produced a delivery before"):
            run(AsynchronousTiming(), self._EarlyLinks())
        with pytest.raises(SimulationError, match="timing model"):  # the first draw to go wrong
            run(self._Early(), self._EarlyLinks())

    def test_max_events_is_a_hard_valve(self):
        system = build_system(
            membership=unique_identities(3),
            timing=AsynchronousTiming(min_latency=0.1, max_latency=0.5),
            program_factory=lambda pid, identity: PeriodicSenderProgram(period=1.0),
        )
        with pytest.raises(SimulationError, match="exceeded 40 events"):
            Simulation(system).run(until=100.0, max_events=40)

    def test_stop_when_is_asked_after_every_event(self):
        system = build_system(
            membership=unique_identities(3),
            timing=AsynchronousTiming(min_latency=0.1, max_latency=0.5),
            program_factory=lambda pid, identity: PeriodicSenderProgram(period=1.0),
        )
        simulation = Simulation(system)
        seen: list[int] = []

        def stop_when(sim):
            seen.append(sim.events_processed)
            return False

        simulation.run(until=20.0, stop_when=stop_when)
        # Once before the first event, then once per event, in step.
        assert seen == list(range(simulation.events_processed + 1))

    def test_a_wakeup_scheduled_in_the_past_cannot_turn_the_clock_back(self):
        system = build_system(
            membership=unique_identities(1),
            timing=AsynchronousTiming(),
            program_factory=lambda pid, identity: PingProgram(),
        )
        simulation = Simulation(system)
        simulation.queue.schedule(5.0, lambda: simulation.queue.schedule(1.0, lambda: None))
        with pytest.raises(ValueError, match="backwards"):
            simulation.run(until=10.0)
