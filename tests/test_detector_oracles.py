"""Tests for the ground-truth detector oracles.

Each oracle is attached to a simulated system whose processes sample it
periodically; the recorded trace is then validated with the corresponding
property checker.  This both tests the oracles and exercises the checkers on
known-good behaviour.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.detectors import CLASSES
from repro.errors import DetectorError
from repro.identity import IdentityMultiset, ProcessId
from repro.membership import anonymous_identities, grouped_identities, unique_identities
from repro.sim import Clock, CrashSchedule

from .helpers import make_services, run_probe_system


def p(index: int) -> ProcessId:
    return ProcessId(index)


CRASH_ONE = CrashSchedule.at_times({p(1): 10.0})


class TestHOmegaOracle:
    def test_election_after_stabilization(self, homonymous_six):
        _, trace = run_probe_system(
            homonymous_six,
            detectors={"HOmega": lambda services: CLASSES["HOmega"].oracle(services, stabilization_time=15.0)},
            probes=CLASSES["HOmega"].probes(),
            crash_schedule=CRASH_ONE,
            until=40.0,
        )
        pattern = _pattern(homonymous_six, CRASH_ONE)
        result = CLASSES["HOmega"].judge(trace, pattern)
        assert result.ok, result.violations
        assert result.stabilization_time is not None
        assert result.stabilization_time >= 10.0

    def test_pre_stabilization_noise_changes_leaders(self, homonymous_six):
        services = make_services(homonymous_six, clock=Clock())
        oracle = CLASSES["HOmega"].oracle(services, stabilization_time=100.0, noise_period=5.0)
        views = [oracle.view_for(process) for process in homonymous_six.processes]
        outputs = {view.h_leader for view in views}
        # With six processes and noisy output it is overwhelmingly likely that
        # at least two disagree; the point is that disagreement is *possible*.
        assert len(outputs) >= 1
        services.clock.advance_to(150.0)
        stabilized = {view.read() for view in views}
        assert len(stabilized) == 1

    def test_eventual_leader_is_min_correct_identity(self, paper_example_membership):
        schedule = CrashSchedule.at_times({p(0): 1.0})
        services = make_services(paper_example_membership, crash_schedule=schedule)
        oracle = CLASSES["HOmega"].oracle(services, stabilization_time=5.0)
        leader, multiplicity = CLASSES["HOmega"].eventual(oracle, p(1))
        # Correct processes are p1 (id A) and p2 (id B): leader id is A, mult 1.
        assert leader == "A"
        assert multiplicity == 1

    def test_multiplicity_counts_only_correct_homonyms(self):
        membership = grouped_identities([3, 1])  # ids: g0,g0,g0,g1
        schedule = CrashSchedule.at_times({p(0): 2.0})
        services = make_services(membership, crash_schedule=schedule)
        oracle = CLASSES["HOmega"].oracle(services, stabilization_time=5.0)
        leader, multiplicity = CLASSES["HOmega"].eventual(oracle, p(1))
        assert leader == "grp0"
        assert multiplicity == 2


class TestDiamondHPOracle:
    def test_converges_to_correct_multiset(self, homonymous_six):
        _, trace = run_probe_system(
            homonymous_six,
            detectors={"DiamondHP": lambda s: CLASSES["DiamondHP"].oracle(s, stabilization_time=15.0)},
            probes=CLASSES["DiamondHP"].probes(),
            crash_schedule=CRASH_ONE,
            until=40.0,
        )
        result = CLASSES["DiamondHP"].judge(trace, _pattern(homonymous_six, CRASH_ONE))
        assert result.ok, result.violations

    def test_pre_stabilization_trusts_alive_superset(self, homonymous_six):
        services = make_services(homonymous_six, crash_schedule=CRASH_ONE)
        oracle = CLASSES["DiamondHP"].oracle(services, stabilization_time=50.0)
        view = oracle.view_for(p(0))
        expected_all = homonymous_six.identity_multiset()
        assert view.h_trusted == expected_all
        services.clock.advance_to(60.0)
        assert view.h_trusted == _pattern(homonymous_six, CRASH_ONE).correct_identity_multiset()


class TestHSigmaOracle:
    def test_all_four_properties_hold(self, homonymous_six):
        _, trace = run_probe_system(
            homonymous_six,
            detectors={"HSigma": lambda s: CLASSES["HSigma"].oracle(s, stabilization_time=15.0)},
            probes=CLASSES["HSigma"].probes(),
            crash_schedule=CRASH_ONE,
            until=40.0,
        )
        result = CLASSES["HSigma"].judge(trace, _pattern(homonymous_six, CRASH_ONE))
        assert result.ok, result.violations

    def test_works_with_many_failures(self):
        membership = grouped_identities([2, 2, 2])
        schedule = CrashSchedule.at_times({p(0): 5.0, p(2): 6.0, p(4): 7.0})
        _, trace = run_probe_system(
            membership,
            detectors={"HSigma": lambda s: CLASSES["HSigma"].oracle(s, stabilization_time=10.0)},
            probes=CLASSES["HSigma"].probes(),
            crash_schedule=schedule,
            until=40.0,
        )
        result = CLASSES["HSigma"].judge(trace, _pattern(membership, schedule))
        assert result.ok, result.violations


class TestClassicalOracles:
    def test_diamond_p(self, unique_five):
        _, trace = run_probe_system(
            unique_five,
            detectors={"DiamondP": lambda s: CLASSES["DiamondP"].oracle(s, stabilization_time=15.0)},
            probes=CLASSES["DiamondP"].probes(),
            crash_schedule=CRASH_ONE,
            until=40.0,
        )
        result = CLASSES["DiamondP"].judge(trace, _pattern(unique_five, CRASH_ONE))
        assert result.ok, result.violations

    def test_omega(self, unique_five):
        _, trace = run_probe_system(
            unique_five,
            detectors={"Omega": lambda s: CLASSES["Omega"].oracle(s, stabilization_time=15.0)},
            probes=CLASSES["Omega"].probes(),
            crash_schedule=CRASH_ONE,
            until=40.0,
        )
        result = CLASSES["Omega"].judge(trace, _pattern(unique_five, CRASH_ONE))
        assert result.ok, result.violations

    def test_sigma(self, unique_five):
        _, trace = run_probe_system(
            unique_five,
            detectors={"Sigma": lambda s: CLASSES["Sigma"].oracle(s, stabilization_time=15.0)},
            probes=CLASSES["Sigma"].probes(),
            crash_schedule=CRASH_ONE,
            until=40.0,
        )
        result = CLASSES["Sigma"].judge(trace, _pattern(unique_five, CRASH_ONE))
        assert result.ok, result.violations

    def test_perfect_oracle_suspects_only_crashed(self, unique_five):
        services = make_services(unique_five, crash_schedule=CRASH_ONE)
        oracle = CLASSES["Perfect"].oracle(services)
        view = oracle.view_for(p(0))
        assert view.suspected == frozenset()
        services.clock.advance_to(20.0)
        assert view.suspected == {unique_five.identity_of(p(1))}

    def test_classical_oracles_reject_homonymous_memberships(self, paper_example_membership):
        services = make_services(paper_example_membership)
        for oracle_class in (CLASSES["DiamondP"].oracle, CLASSES["Omega"].oracle, CLASSES["Sigma"].oracle, CLASSES["Perfect"].oracle):
            with pytest.raises(DetectorError):
                oracle_class(services)

    def test_script_e(self, unique_five):
        _, trace = run_probe_system(
            unique_five,
            detectors={"ScriptE": lambda s: CLASSES["ScriptE"].oracle(s, stabilization_time=15.0)},
            probes=CLASSES["ScriptE"].probes(),
            crash_schedule=CRASH_ONE,
            until=40.0,
        )
        result = CLASSES["ScriptE"].judge(trace, _pattern(unique_five, CRASH_ONE))
        assert result.ok, result.violations

    def test_script_e_rejects_homonyms(self, paper_example_membership):
        with pytest.raises(DetectorError):
            CLASSES["ScriptE"].oracle(make_services(paper_example_membership))


class TestAnonymousOracles:
    def test_ap(self, anonymous_five):
        _, trace = run_probe_system(
            anonymous_five,
            detectors={"AP": lambda s: CLASSES["AP"].oracle(s, stabilization_time=15.0)},
            probes=CLASSES["AP"].probes(),
            crash_schedule=CRASH_ONE,
            until=40.0,
        )
        result = CLASSES["AP"].judge(trace, _pattern(anonymous_five, CRASH_ONE))
        assert result.ok, result.violations

    def test_ap_with_pessimism_still_safe(self, anonymous_five):
        # A slower real implementation over-counts by a margin that decays to
        # zero at the stabilization time: one more ``eventual``, not an option.
        def pessimistic(run, process, now):
            margin = 2 if now < run.stabilization_time else 0
            return min(run.membership.size, len(run.pattern.alive_at(now)) + margin)

        row = dataclasses.replace(CLASSES["AP"], eventual=pessimistic)
        _, trace = run_probe_system(
            anonymous_five,
            detectors={"AP": lambda s: row.oracle(s, stabilization_time=15.0)},
            probes=row.probes(),
            crash_schedule=CRASH_ONE,
            until=40.0,
        )
        result = row.judge(trace, _pattern(anonymous_five, CRASH_ONE))
        assert result.ok, result.violations

    def test_aomega(self, anonymous_five):
        _, trace = run_probe_system(
            anonymous_five,
            detectors={"AOmega": lambda s: CLASSES["AOmega"].oracle(s, stabilization_time=15.0)},
            probes=CLASSES["AOmega"].probes(),
            crash_schedule=CRASH_ONE,
            until=40.0,
        )
        result = CLASSES["AOmega"].judge(trace, _pattern(anonymous_five, CRASH_ONE))
        assert result.ok, result.violations

    def test_asigma(self, anonymous_five):
        _, trace = run_probe_system(
            anonymous_five,
            detectors={"ASigma": lambda s: CLASSES["ASigma"].oracle(s, stabilization_time=15.0)},
            probes=CLASSES["ASigma"].probes(),
            crash_schedule=CRASH_ONE,
            until=40.0,
        )
        result = CLASSES["ASigma"].judge(trace, _pattern(anonymous_five, CRASH_ONE))
        assert result.ok, result.violations

    def test_anonymous_oracles_accept_any_membership(self, homonymous_six):
        services = make_services(homonymous_six)
        CLASSES["AP"].oracle(services)
        CLASSES["AOmega"].oracle(services)
        CLASSES["ASigma"].oracle(services)

    def test_ap_never_below_alive_count(self, anonymous_five):
        schedule = CrashSchedule.at_times({p(0): 5.0, p(1): 30.0})
        services = make_services(anonymous_five, crash_schedule=schedule)
        oracle = CLASSES["AP"].oracle(services, stabilization_time=10.0)
        view = oracle.view_for(p(2))
        services.clock.advance_to(12.0)
        # p1 is still alive at t=12 although faulty: output must stay >= 4.
        assert view.anap >= 4


def _pattern(membership, schedule):
    from repro.sim.failures import FailurePattern

    return FailurePattern(membership, schedule)
