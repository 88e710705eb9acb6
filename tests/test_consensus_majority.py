"""Tests for the Figure 8 consensus algorithm (HAS[t < n/2, HΩ]) and its baselines."""

from __future__ import annotations

from functools import partial

import pytest

from repro.consensus import (
    CONSENSUS_CHECKS,
    HOmegaMajorityConsensus,
    NoCoordinationConsensus,
    distinct_proposals,
    validate_consensus,
)
from repro.consensus.rules import BOTTOM, MajorityQuorum
from repro.errors import ConfigurationError
from repro.identity import ProcessId
from repro.membership import grouped_identities
from repro.runtime import DETECTORS, crashes_at, execute_spec, scenario
from repro.sim import AsynchronousTiming, CrashEvent, CrashSchedule, Simulation, build_system

from .helpers import failed_checks


def figure8(name: str = "figure8", *, stabilization: float = 20.0, noise_period=5.0):
    """Figure 8 under the three consensus checks, before its system is chosen."""
    return (
        scenario(name)
        .detectors("HOmega", stabilization=stabilization, noise_period=noise_period)
        .consensus("homega_majority")
        .check(*CONSENSUS_CHECKS)
        .horizon(400.0)
        .seed(17)
    )


class TestFigureEightCorrectness:
    @pytest.mark.parametrize(
        "shape",
        [
            lambda builder: builder.homonyms([2, 2, 1]),
            lambda builder: builder.processes(5).unique_ids(),
            lambda builder: builder.processes(5).anonymous(),
            lambda builder: builder.homonyms([3, 2]),
        ],
        ids=["homonyms", "unique", "anonymous", "two-groups"],
    )
    def test_decides_correctly_across_homonymy_patterns(self, shape):
        spec = shape(figure8()).crashes(crashes_at({1: 10.0})).build()
        assert not failed_checks(execute_spec(spec).metrics)

    def test_no_crash_run(self):
        spec = figure8(stabilization=5.0).homonyms([2, 2]).build()
        assert not failed_checks(execute_spec(spec).metrics)

    def test_maximum_minority_of_crashes(self):
        spec = (
            figure8()
            .homonyms([3, 2, 2])  # n = 7, t = 3
            .consensus("homega_majority", t=3)
            .crashes(crashes_at({0: 8.0, 3: 12.0, 5: 16.0}))
            .horizon(600.0)
            .build()
        )
        assert not failed_checks(execute_spec(spec).metrics)

    def test_crash_during_broadcast(self):
        # A leader-group process crashes mid-broadcast: a crash schedule no
        # spec helper draws, so the system is wired by hand.
        membership = grouped_identities([2, 2, 1])
        proposals = distinct_proposals(membership)
        schedule = CrashSchedule((CrashEvent(ProcessId(0), 6.0, partial_broadcast_fraction=0.4),))
        simulation = Simulation(
            build_system(
                membership=membership,
                timing=AsynchronousTiming(min_latency=0.1, max_latency=2.0),
                program_factory=lambda pid, identity: HOmegaMajorityConsensus(
                    proposals[pid], n=membership.size
                ),
                crash_schedule=schedule,
                detectors={
                    "HOmega": partial(
                        DETECTORS.resolve("HOmega"), stabilization_time=20.0, noise_period=5.0
                    )
                },
                seed=17,
            )
        )
        trace = simulation.run(until=400.0, stop_when=Simulation.all_correct_decided)
        verdict = validate_consensus(trace, simulation.failure_pattern, proposals)
        assert verdict.ok, verdict.violations

    def test_decision_value_is_a_proposal(self):
        spec = figure8().homonyms([2, 2, 1]).crashes(crashes_at({4: 9.0})).build()
        assert not failed_checks(execute_spec(spec).metrics)

    def test_different_seeds_all_correct(self):
        spec = figure8().homonyms([2, 2, 1]).crashes(crashes_at({2: 12.0})).build()
        for seed in (1, 2, 3, 4, 5):
            metrics = execute_spec(spec.with_seed(seed)).metrics
            assert not failed_checks(metrics), seed
            assert metrics["decided"] and metrics["safe"]

    def test_immediately_stable_detector_fast_decision(self):
        spec = figure8(stabilization=0.0, noise_period=None).homonyms([2, 1]).build()
        metrics = execute_spec(spec).metrics
        assert not failed_checks(metrics)
        assert metrics["rounds"] is not None and metrics["rounds"] <= 2


class TestFigureEightValidation:
    def test_rejects_t_at_least_half(self):
        with pytest.raises(ConfigurationError):
            HOmegaMajorityConsensus("v", n=4, t=2)

    def test_rejects_non_positive_n(self):
        with pytest.raises(ConfigurationError):
            HOmegaMajorityConsensus("v", n=0)

    def test_default_t_is_largest_minority(self):
        assert HOmegaMajorityConsensus("v", n=5).quorum.t == 2
        assert HOmegaMajorityConsensus("v", n=4).quorum.t == 1

    def test_the_lock_tries_values_in_arrival_order(self):
        """Six estimates among n = 5 (more than n can be) hold two majorities:
        the first to arrive wins, not the one a set happens to list first."""
        assert MajorityQuorum(n=5).lock([2, 1, 2, 1, 2, 1]) == 2
        assert MajorityQuorum(n=5).lock([1, 2, 1, 2, 1, 2]) == 1
        assert MajorityQuorum(n=5).lock([1, 2, 2, 1]) is BOTTOM

    def test_gather_returns_the_first_n_minus_t_estimates(self):
        """Four estimates are buffered when n = 5, t = 2 waits for three: the
        three that arrived first come back, not every buffered one."""

        class Program:
            decided = False

            def messages(self, kind, round_number):
                return [{"estimate": value} for value in "abcd"]

        class Context:
            def broadcast(self, kind, **payload):
                pass

            def wait_until(self, predicate):
                assert predicate()
                return "wait"

        steps = MajorityQuorum(n=5).gather(Program(), Context(), "EST", 1, "a", lambda: False)
        assert next(steps) == "wait"
        with pytest.raises(StopIteration) as done:
            next(steps)
        assert done.value.value == ["a", "b", "c"]


class TestBaselines:
    def test_classical_omega_consensus_on_unique_ids(self):
        spec = (
            scenario("classical-omega")
            .processes(5)
            .unique_ids()
            .detectors("Omega", stabilization=15.0, noise_period=None)
            .consensus("classical_omega")
            .check(*CONSENSUS_CHECKS)
            .crashes(crashes_at({1: 10.0, 3: 14.0}))
            .horizon(400.0)
            .seed(17)
            .build()
        )
        assert not failed_checks(execute_spec(spec).metrics)

    def test_anonymous_aomega_consensus(self):
        spec = (
            scenario("anonymous-aomega")
            .processes(5)
            .anonymous()
            .detectors("AOmega", stabilization=15.0, noise_period=None)
            .consensus("anonymous_aomega")
            .check(*CONSENSUS_CHECKS)
            .crashes(crashes_at({2: 10.0}))
            .horizon(400.0)
            .seed(17)
            .build()
        )
        assert not failed_checks(execute_spec(spec).metrics)


class TestNoCoordinationAblation:
    def test_safety_is_preserved_even_without_coordination(self):
        # Removing the Leaders' Coordination Phase may cost termination, but
        # validity and agreement must still hold in every run that decides.
        spec = (
            scenario("no-coordination")
            .homonyms([3, 2])
            .detectors("HOmega", stabilization=10.0)
            .consensus("no_coordination")
            .check("consensus_validity", "consensus_agreement")
            .crashes(crashes_at({3: 8.0}))
            .horizon(250.0)
            .build()
        )
        for seed in (1, 2, 3):
            assert not failed_checks(execute_spec(spec.with_seed(seed)).metrics), seed

    def test_full_algorithm_describes_itself_differently(self):
        full = HOmegaMajorityConsensus("v", n=3)
        ablated = NoCoordinationConsensus("v", n=3)
        assert full.use_coordination_phase
        assert not ablated.use_coordination_phase
        assert full.describe() != ablated.describe()
