"""Tests for the Figure 7 (HΣ in HSS) and Figure 3 (ℰ in AS) implementations."""

from __future__ import annotations

import pytest

from repro.algorithms import HSigmaSynchronousProgram, ScriptAliveProgram
from repro.detectors import CLASSES
from repro.identity import IdentityMultiset, ProcessId
from repro.membership import anonymous_identities, grouped_identities, unique_identities
from repro.sim import (
    AsynchronousTiming,
    CrashSchedule,
    Simulation,
    SynchronousTiming,
    build_system,
)
from repro.sim.failures import FailurePattern

H_QUORA, H_LABELS = CLASSES["HSigma"].keys
(SCRIPT_E_ALIVE,) = CLASSES["ScriptE"].keys


def p(index: int) -> ProcessId:
    return ProcessId(index)


def run_hsigma(membership, *, crashes=None, steps=12, seed=5):
    schedule = CrashSchedule.at_times(crashes or {})
    system = build_system(
        membership=membership,
        timing=SynchronousTiming(step=1.0),
        program_factory=lambda pid, identity: HSigmaSynchronousProgram(steps=steps),
        crash_schedule=schedule,
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=steps + 2.0)
    return trace, FailurePattern(membership, schedule)


class TestHSigmaSynchronous:
    def test_no_crash_all_properties(self, paper_example_membership):
        trace, pattern = run_hsigma(paper_example_membership)
        result = CLASSES["HSigma"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_with_crashes(self):
        membership = grouped_identities([2, 2, 2])
        trace, pattern = run_hsigma(membership, crashes={p(1): 3.4, p(4): 6.2})
        result = CLASSES["HSigma"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_majority_of_failures(self):
        membership = grouped_identities([3, 2])
        trace, pattern = run_hsigma(
            membership, crashes={p(0): 2.2, p(1): 3.7, p(3): 5.1}, steps=15
        )
        result = CLASSES["HSigma"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_anonymous_membership(self):
        membership = anonymous_identities(4)
        trace, pattern = run_hsigma(membership, crashes={p(2): 4.5})
        result = CLASSES["HSigma"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_quora_eventually_contain_correct_multiset(self):
        membership = grouped_identities([2, 1])
        trace, pattern = run_hsigma(membership, crashes={p(0): 3.5})
        correct_multiset = pattern.correct_identity_multiset()
        for process in sorted(pattern.correct):
            final_quora = trace.final_value(process, H_QUORA)
            labels = {label for label, _ in final_quora}
            assert correct_multiset in labels

    def test_labels_are_monotonic_per_process(self, paper_example_membership):
        trace, pattern = run_hsigma(paper_example_membership, crashes={p(1): 4.5})
        for process in paper_example_membership.processes:
            series = [value for _, value in trace.records_of(process, H_LABELS)]
            for earlier, later in zip(series, series[1:]):
                assert earlier <= later

    def test_hsigma_view(self):
        program = HSigmaSynchronousProgram()
        view = program.hsigma_view()
        assert view.h_quora == frozenset()
        label = IdentityMultiset(["A"])
        program.h_quora = frozenset({(label, label)})
        program.h_labels = frozenset({label})
        assert view.h_quora == frozenset({(label, label)})
        assert view.h_labels == frozenset({label})


class TestScriptAlive:
    def run_script(self, membership, *, crashes=None, until=60.0, seed=9):
        schedule = CrashSchedule.at_times(crashes or {})
        system = build_system(
            membership=membership,
            timing=AsynchronousTiming(min_latency=0.2, max_latency=2.0),
            program_factory=lambda pid, identity: ScriptAliveProgram(resend_period=1.0),
            crash_schedule=schedule,
            seed=seed,
        )
        simulation = Simulation(system)
        trace = simulation.run(until=until)
        return trace, FailurePattern(membership, schedule)

    def test_correct_identifiers_reach_the_prefix(self):
        membership = unique_identities(5)
        trace, pattern = self.run_script(membership, crashes={p(1): 15.0, p(4): 20.0})
        result = CLASSES["ScriptE"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_no_crash_everyone_in_prefix(self):
        membership = unique_identities(4)
        trace, pattern = self.run_script(membership)
        result = CLASSES["ScriptE"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_faulty_identifier_sinks_to_the_back(self):
        membership = unique_identities(3)
        trace, pattern = self.run_script(membership, crashes={p(0): 10.0})
        for process in sorted(pattern.correct):
            final = trace.final_value(process, SCRIPT_E_ALIVE)
            assert final[-1] == "id0"

    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            ScriptAliveProgram(resend_period=0)

    def test_script_e_view(self):
        program = ScriptAliveProgram()
        view = program.script_e_view()
        program.alive = ["b", "a"]
        assert view.alive == view.read() == ("b", "a")
        assert type(view) is CLASSES["ScriptE"].view
