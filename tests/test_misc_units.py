"""Unit tests for smaller pieces: errors, messages, traces, composition."""

from __future__ import annotations

import pytest

from repro import __version__
from repro.detectors import CLASSES, DetectorProbeProgram
from repro.errors import (
    ConfigurationError,
    ConsensusViolationError,
    DetectorError,
    ProcessCrashedError,
    ReductionError,
    ReproError,
    SchedulingError,
    SimulationError,
    TraceError,
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
            ConsensusViolationError,
            DetectorError,
            ProcessCrashedError,
            ReductionError,
            SchedulingError,
            SimulationError,
            TraceError,
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
    def test_value_at_returns_last_record_before_time(self):
        trace = RunTrace()
        trace.record(p(0), "x", 1, 1.0)
        trace.record(p(0), "x", 2, 5.0)
        assert trace.value_at(p(0), "x", 0.5, default="none") == "none"
        assert trace.value_at(p(0), "x", 1.0) == 1
        assert trace.value_at(p(0), "x", 10.0) == 2

    def test_keys_and_processes_recorded(self):
        trace = RunTrace()
        trace.record(p(1), "a", 1, 0.0)
        trace.record(p(1), "b", 2, 0.0)
        assert trace.keys_recorded(p(1)) == {"a", "b"}
        assert trace.processes_with_records() == {p(1)}
        assert trace.keys_recorded(p(9)) == frozenset()

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
        assert trace.decision_of(p(0)).value == "v"
        assert trace.decided(p(0))
        assert not trace.decided(p(1))
        assert trace.last_decision_time() == 3.0
        with pytest.raises(TraceError):
            trace.decision_of(p(1))

    def test_all_records_iterates_everything(self):
        trace = RunTrace()
        trace.record(p(0), "a", 1, 0.0)
        trace.record(p(1), "b", 2, 1.0)
        assert len(list(trace.all_records())) == 2

    def test_empty_trace_defaults(self):
        trace = RunTrace()
        assert trace.last_decision_time() is None
        assert trace.final_value(p(0), "x", default=42) == 42
        assert trace.broadcast_invocations == 0
        assert trace.message_copies_delivered == 0


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
        values = [value for _, value in trace.values_of(p(0), "setup")]
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
        from repro.sim import Clock, EventQueue, ProcessRuntime

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
            rng=__import__("random").Random(0),
            broadcast_fn=lambda sender, message: None,
        )
        runtime.start()
        runtime.crash()
        with pytest.raises(ProcessCrashedError):
            runtime.broadcast(Message("X"))
