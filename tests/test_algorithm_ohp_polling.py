"""Tests for the Figure 6 implementation of ◇HP / HΩ in HPS[∅] (Theorem 5, Corollary 2)."""

from __future__ import annotations

import pytest

from repro.algorithms import OhpPollingProgram
from repro.detectors import CLASSES
from repro.identity import IdentityMultiset, ProcessId
from repro.membership import (
    anonymous_identities,
    grouped_identities,
    unique_identities,
)
from repro.sim import (
    CrashSchedule,
    PartiallySynchronousTiming,
    Simulation,
    build_system,
)
from repro.sim.failures import FailurePattern

(H_TRUSTED,) = CLASSES["DiamondHP"].keys
H_LEADER, H_MULTIPLICITY = CLASSES["HOmega"].keys


def p(index: int) -> ProcessId:
    return ProcessId(index)


def run_polling(
    membership,
    *,
    crashes=None,
    gst=15.0,
    delta=1.0,
    until=120.0,
    seed=11,
    program_kwargs=None,
):
    schedule = CrashSchedule.at_times(crashes or {})
    timing = PartiallySynchronousTiming(
        gst=gst, delta=delta, min_latency=0.1, pre_gst_loss=0.4, pre_gst_max_latency=30.0
    )
    system = build_system(
        membership=membership,
        timing=timing,
        program_factory=lambda pid, identity: OhpPollingProgram(**(program_kwargs or {})),
        crash_schedule=schedule,
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=until)
    return simulation, trace, FailurePattern(membership, schedule)


class TestDiamondHPConvergence:
    def test_homonymous_membership_with_crash(self):
        membership = grouped_identities([2, 2, 1])
        _, trace, pattern = run_polling(membership, crashes={p(1): 20.0})
        result = CLASSES["DiamondHP"].judge(trace, pattern)
        assert result.ok, result.violations
        assert result.stabilization_time is not None
        # Convergence can only be claimed after the crash actually happened.
        assert result.stabilization_time >= 20.0

    def test_unique_membership_no_crash(self):
        membership = unique_identities(4)
        _, trace, pattern = run_polling(membership)
        result = CLASSES["DiamondHP"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_anonymous_membership(self):
        membership = anonymous_identities(4)
        _, trace, pattern = run_polling(membership, crashes={p(3): 25.0})
        result = CLASSES["DiamondHP"].judge(trace, pattern)
        assert result.ok, result.violations
        # The converged multiset is ⊥^3.
        correct_process = p(0)
        final = trace.final_value(correct_process, H_TRUSTED)
        assert final == IdentityMultiset.uniform("⊥", 3)

    def test_multiple_crashes(self):
        membership = grouped_identities([3, 3])
        _, trace, pattern = run_polling(
            membership, crashes={p(0): 18.0, p(3): 22.0, p(4): 26.0}, until=150.0
        )
        result = CLASSES["DiamondHP"].judge(trace, pattern)
        assert result.ok, result.violations


class TestHOmegaOutput:
    def test_election_property(self):
        membership = grouped_identities([2, 2, 1])
        _, trace, pattern = run_polling(membership, crashes={p(0): 20.0})
        result = CLASSES["HOmega"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_leader_is_smallest_correct_identity_with_multiplicity(self):
        membership = grouped_identities([2, 3])  # ids grp0 x2, grp1 x3
        _, trace, pattern = run_polling(membership, crashes={p(0): 20.0})
        # Correct: one grp0 process and three grp1 processes → leader grp0, mult 1.
        for process in sorted(pattern.correct):
            assert trace.final_value(process, H_LEADER) == "grp0"
            assert trace.final_value(process, H_MULTIPLICITY) == 1

    def test_all_leaders_crash_reelects(self):
        membership = grouped_identities([2, 2])
        # Both processes with the smallest identifier (grp0) crash.
        _, trace, pattern = run_polling(
            membership, crashes={p(0): 20.0, p(1): 24.0}, until=150.0
        )
        result = CLASSES["HOmega"].judge(trace, pattern)
        assert result.ok, result.violations
        for process in sorted(pattern.correct):
            assert trace.final_value(process, H_LEADER) == "grp1"
            assert trace.final_value(process, H_MULTIPLICITY) == 2


class TestAdaptiveTimeout:
    def test_timeout_grows_under_large_delta(self):
        membership = unique_identities(3)
        _, trace, pattern = run_polling(
            membership,
            gst=0.0,
            delta=4.0,
            until=200.0,
            program_kwargs={"initial_timeout": 1.0},
        )
        # The adaptive mechanism must have raised the timeout beyond its start.
        final_timeouts = [
            trace.final_value(process, "ohp.timeout") for process in membership.processes
        ]
        assert all(timeout is not None and timeout > 1.0 for timeout in final_timeouts)
        result = CLASSES["DiamondHP"].judge(trace, pattern)
        assert result.ok, result.violations

    def test_fixed_timeout_smaller_than_delta_never_converges(self):
        membership = unique_identities(3)
        _, trace, pattern = run_polling(
            membership,
            gst=0.0,
            delta=4.0,
            until=120.0,
            program_kwargs={"initial_timeout": 1.0, "fixed_timeout": True},
        )
        result = CLASSES["DiamondHP"].judge(trace, pattern)
        assert not result.ok

    def test_validation_of_parameters(self):
        with pytest.raises(ValueError):
            OhpPollingProgram(initial_timeout=0)
        with pytest.raises(ValueError):
            OhpPollingProgram(timeout_increment=-1)


class TestStackedView:
    def test_homega_view_reflects_current_state(self):
        program = OhpPollingProgram()
        view = program.homega_view()
        program.h_leader = "X"
        program.h_multiplicity = 2
        assert view.h_leader == "X"
        assert view.h_multiplicity == 2
        assert view.read() == ("X", 2)

    def test_diamond_hp_view_reflects_current_state(self):
        program = OhpPollingProgram()
        view = program.diamond_hp_view()
        program.h_trusted = IdentityMultiset(["A", "A"])
        assert view.h_trusted == IdentityMultiset(["A", "A"])
