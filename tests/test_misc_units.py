"""Unit tests for smaller pieces: errors, messages, traces, composition."""

from __future__ import annotations

import pytest

from repro import __version__
from repro.detectors import CLASSES, DetectorProbeProgram
from repro.detectors.detection import DECLARED_DEAD, judge_detections
from repro.errors import (
    ConfigurationError,
    DetectorError,
    ProcessCrashedError,
    ReductionError,
    ReproError,
    SchedulingError,
    SimulationError,
)
from repro.identity import ProcessId
from repro.membership import grouped_identities, unique_identities
from repro.sim import (
    AsynchronousTiming,
    CompositeProgram,
    CrashSchedule,
    Message,
    ProcessProgram,
    RunTrace,
    Simulation,
    build_system,
)


def p(index: int) -> ProcessId:
    return ProcessId(index)


class TestErrorsHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for error_class in (
            ConfigurationError,
                    DetectorError,
            ProcessCrashedError,
            ReductionError,
            SchedulingError,
            SimulationError,
        ):
            assert issubclass(error_class, ReproError)

    def test_process_crashed_is_a_simulation_error(self):
        assert issubclass(ProcessCrashedError, SimulationError)

    def test_version_exposed(self):
        assert __version__.count(".") == 2


class TestMessage:
    def test_field_access(self):
        message = Message("PING", {"round": 3, "identity": "A"})
        assert message["round"] == 3
        assert message.get("identity") == "A"
        assert message.get("missing", "fallback") == "fallback"

    def test_matches(self):
        message = Message("PH1", {"round": 2, "estimate": "x"})
        assert message.matches(round=2)
        assert message.matches(round=2, estimate="x")
        assert not message.matches(round=3)
        assert not message.matches(missing=1)

    def test_repr_contains_kind_and_fields(self):
        message = Message("COORD", {"round": 1})
        assert "COORD" in repr(message)
        assert "round=1" in repr(message)


class TestRunTraceQueries:
    def test_records_of_is_the_stored_time_value_series(self):
        trace = RunTrace()
        trace.record(p(0), "x", 1, 1.0)
        trace.record(p(0), "y", "other", 2.0)
        trace.record(p(0), "x", 2, 5.0)
        series = trace.records_of(p(0), "x")
        assert series == [(1.0, 1), (5.0, 2)]
        assert trace.records_of(p(0), "x") is series  # handed out, not copied
        assert trace.final_value(p(0), "x") == 2

    def test_keys_and_processes_recorded(self):
        trace = RunTrace()
        trace.record(p(1), "a", 1, 0.0)
        trace.record(p(1), "b", 2, 0.0)
        assert trace.records_of(p(1), "a") == [(0.0, 1)]
        assert trace.records_of(p(1), "b") == [(0.0, 2)]
        assert trace.processes_with_records() == {p(1)}
        assert not trace.records_of(p(9), "a")

    def test_first_time_value_holds(self):
        trace = RunTrace()
        trace.record(p(0), "x", "bad", 1.0)
        trace.record(p(0), "x", "good", 2.0)
        trace.record(p(0), "x", "bad", 3.0)
        trace.record(p(0), "x", "good", 4.0)
        assert trace.first_time_value_holds(p(0), "x", lambda v: v == "good") == 4.0
        assert trace.first_time_value_holds(p(0), "x", lambda v: v == "never") is None

    def test_decision_queries(self):
        trace = RunTrace()
        trace.record_decision(p(0), "v", 3.0)
        trace.record_decision(p(0), "other", 4.0)  # ignored: first decision wins
        assert trace.decisions[p(0)].value == "v"
        assert trace.decided(p(0))
        assert not trace.decided(p(1))
        assert trace.last_decision_time() == 3.0
        assert p(1) not in trace.decisions

    def test_reading_an_unrecorded_series_adds_none(self):
        trace = RunTrace()
        assert not trace.records_of(p(3), "x")
        assert trace.final_value(p(3), "x") is None
        assert trace.first_time_value_holds(p(3), "x", bool) is None
        assert trace.processes_with_records() == frozenset()

    def test_empty_trace_defaults(self):
        trace = RunTrace()
        assert trace.last_decision_time() is None
        assert trace.final_value(p(0), "x", default=42) == 42
        assert trace.broadcast_invocations == 0
        assert trace.delivered_by_kind == {}


class TestJudgeDetections:
    """The pinned detection rule of ``repro.detectors.detection``."""

    @staticmethod
    def _declare(trace, observer, time, target):
        trace.record(observer, DECLARED_DEAD, target, time)

    def test_earliest_declaration_at_or_after_t_fail_is_the_detection(self):
        trace = RunTrace()
        self._declare(trace, p(1), 7.0, "B")
        self._declare(trace, p(0), 5.5, "B")
        self._declare(trace, p(0), 9.0, "B")  # a repeated line never moves it
        verdict = judge_detections(trace, [p(0), p(1)], {"B": 5.0})
        assert verdict.latencies == {"B": 0.5}
        assert verdict.missed == ()
        assert verdict.false_suspicions == ()

    def test_early_or_baseless_declarations_are_false_suspicions(self):
        trace = RunTrace()
        self._declare(trace, p(1), 2.0, "B")  # before B fails
        self._declare(trace, p(0), 3.0, "C")  # C never fails
        self._declare(trace, p(1), 6.0, "B")
        verdict = judge_detections(trace, [p(1), p(0)], {"B": 5.0})
        assert verdict.false_suspicions == ((p(0), 3.0, "C"), (p(1), 2.0, "B"))
        assert verdict.latencies == {"B": 1.0}

    def test_only_the_given_observers_count_and_the_rest_is_missed(self):
        trace = RunTrace()
        self._declare(trace, p(2), 6.0, "B")  # p2 is not an observer
        self._declare(trace, p(2), 1.0, "C")
        verdict = judge_detections(trace, [p(0), p(1)], {"B": 5.0, "D": 8.0})
        assert verdict.latencies == {}
        assert verdict.missed == ("B", "D")
        assert verdict.false_suspicions == ()


class TestCompositeProgram:
    class _Recorder(ProcessProgram):
        def __init__(self, tag):
            self.tag = tag

        def setup(self, ctx):
            ctx.record("setup", self.tag)

        def describe(self):
            return self.tag

    def test_runs_all_components_and_describes_them(self):
        membership = unique_identities(2)
        composite_factory = lambda pid, identity: CompositeProgram(
            self._Recorder("first"), self._Recorder("second")
        )
        system = build_system(
            membership=membership,
            timing=AsynchronousTiming(),
            program_factory=composite_factory,
            seed=1,
        )
        trace = Simulation(system).run(until=1.0)
        values = [value for _, value in trace.records_of(p(0), "setup")]
        assert values == ["first", "second"]
        assert "first + second" == CompositeProgram(
            self._Recorder("first"), self._Recorder("second")
        ).describe()

    def test_requires_at_least_one_component(self):
        with pytest.raises(ConfigurationError):
            CompositeProgram()


class TestProbeValidation:
    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            DetectorProbeProgram({}, period=0)

    def test_samples_bound_respected(self):
        membership = unique_identities(2)
        system = build_system(
            membership=membership,
            timing=AsynchronousTiming(),
            program_factory=lambda pid, identity: DetectorProbeProgram(
                {"probe.key": lambda ctx: ctx.identity}, period=1.0, samples=3
            ),
            seed=1,
        )
        trace = Simulation(system).run(until=20.0)
        assert len(trace.records_of(p(0), "probe.key")) == 3


class TestConsensusOverThePlainSimApi:
    def test_custom_detectors_and_identical_proposals(self):
        from repro.consensus import HOmegaMajorityConsensus, validate_consensus

        membership = grouped_identities([2, 1])
        proposals = {process: "same" for process in membership.processes}
        system = build_system(
            membership=membership,
            timing=AsynchronousTiming(min_latency=0.1, max_latency=2.0),
            program_factory=lambda pid, identity: HOmegaMajorityConsensus(
                proposals[pid], n=membership.size
            ),
            detectors={
                "HOmega": lambda services: CLASSES["HOmega"].oracle(services, stabilization_time=2.0)
            },
            seed=6,
        )
        simulation = Simulation(system)
        trace = simulation.run(until=200.0, stop_when=Simulation.all_correct_decided)
        verdict = validate_consensus(trace, simulation.failure_pattern, proposals)
        assert verdict.ok
        assert set(verdict.decided_values.values()) == {"same"}


class TestSchedulerEdgeCases:
    def test_run_until_in_the_past_rejected(self):
        membership = unique_identities(2)
        system = build_system(
            membership=membership,
            timing=AsynchronousTiming(),
            program_factory=lambda pid, identity: DetectorProbeProgram(
                {"k": lambda ctx: 0}, period=1.0, samples=1
            ),
            seed=1,
        )
        simulation = Simulation(system)
        simulation.run(until=10.0)
        with pytest.raises(SimulationError):
            simulation.run(until=5.0)

    def test_max_events_guard(self):
        class ChattyProgram(ProcessProgram):
            def setup(self, ctx):
                ctx.spawn(lambda: self._loop(ctx), name="chatty")

            def _loop(self, ctx):
                while True:
                    ctx.broadcast("NOISE")
                    yield ctx.sleep(0.001)

        membership = unique_identities(3)
        system = build_system(
            membership=membership,
            timing=AsynchronousTiming(min_latency=0.001, max_latency=0.002),
            program_factory=lambda pid, identity: ChattyProgram(),
            seed=1,
        )
        simulation = Simulation(system)
        with pytest.raises(SimulationError):
            simulation.run(until=1_000.0, max_events=2_000)

    def test_unknown_detector_lookup_raises(self):
        membership = unique_identities(2)
        system = build_system(
            membership=membership,
            timing=AsynchronousTiming(),
            program_factory=lambda pid, identity: DetectorProbeProgram(
                {"k": lambda ctx: 0}, period=1.0, samples=1
            ),
            seed=1,
        )
        simulation = Simulation(system)
        with pytest.raises(SimulationError):
            simulation.detector("nope")

    def test_crashed_process_cannot_broadcast(self):
        from repro.sim import Clock, EventQueue, ProcessRuntime, RngStreams

        membership = unique_identities(1)

        class Idle(ProcessProgram):
            def setup(self, ctx):
                pass

        runtime = ProcessRuntime(
            p(0),
            "id0",
            Idle(),
            clock=Clock(),
            queue=EventQueue(),
            timing=AsynchronousTiming(),
            trace=RunTrace(),
            rng_streams=RngStreams(0),
            broadcast_fn=lambda sender, message: None,
            multicast_fn=lambda sender, message, targets: None,
        )
        runtime.start()
        runtime.crash()
        with pytest.raises(ProcessCrashedError):
            runtime.broadcast(Message("X"))
        with pytest.raises(ProcessCrashedError):
            runtime.multicast(Message("X"), (p(0),))

    def test_runtime_needs_a_multicast_fn(self):
        from repro.sim import Clock, EventQueue, ProcessRuntime, RngStreams

        class Idle(ProcessProgram):
            def setup(self, ctx):
                pass

        with pytest.raises(TypeError, match="multicast_fn"):
            ProcessRuntime(
                p(0),
                "id0",
                Idle(),
                clock=Clock(),
                queue=EventQueue(),
                timing=AsynchronousTiming(),
                trace=RunTrace(),
                rng_streams=RngStreams(0),
                broadcast_fn=lambda sender, message: None,
            )
