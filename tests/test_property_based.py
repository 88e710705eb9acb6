"""Property-based tests over randomly generated systems and schedules.

These tests sample homonymy patterns, crash schedules, and seeds with
Hypothesis and assert the paper's headline invariants on every sampled run:
the Figure 7 detector always satisfies the HΣ properties, and the two
consensus algorithms never violate validity or agreement and always terminate
when their assumptions hold.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import HSigmaSynchronousProgram
from repro.consensus import (
    HOmegaHSigmaConsensus,
    HOmegaMajorityConsensus,
    validate_consensus,
)
from repro.detectors import CLASSES
from repro.detectors.properties import _disjoint_quora_exist
from repro.identity import IdentityMultiset, ProcessId
from repro.membership import Membership
from repro.sim import (
    AsynchronousTiming,
    CrashSchedule,
    Simulation,
    SynchronousTiming,
    build_system,
)
from repro.sim.failures import FailurePattern
from repro.workloads.homonymy import membership_with_distinct_ids
from .helpers import make_services  # noqa: F401  (fixture-style import keeps helpers loaded)

SLOW_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def system_shape():
    """(n, distinct_ids) pairs for small systems."""
    return st.integers(min_value=3, max_value=6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))
    )


@st.composite
def crash_choice(draw, n: int, max_faulty: int):
    count = draw(st.integers(min_value=0, max_value=max_faulty))
    victims = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    times = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=30.0, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    return {ProcessId(index): time for index, time in zip(victims, times)}


# ----------------------------------------------------------------------
# Figure 7 — HΣ properties under random crash schedules
# ----------------------------------------------------------------------
class TestHSigmaPropertyBased:
    @SLOW_SETTINGS
    @given(shape=system_shape(), data=st.data(), seed=st.integers(0, 1_000))
    def test_figure7_always_satisfies_hsigma(self, shape, data, seed):
        n, distinct = shape
        membership = membership_with_distinct_ids(n, distinct)
        crashes = data.draw(crash_choice(n, n - 1))
        schedule = CrashSchedule.at_times(crashes)
        steps = 40
        system = build_system(
            membership=membership,
            timing=SynchronousTiming(step=1.0),
            program_factory=lambda pid, identity: HSigmaSynchronousProgram(steps=steps),
            crash_schedule=schedule,
            seed=seed,
        )
        trace = Simulation(system).run(until=steps + 2.0)
        result = CLASSES["HSigma"].judge(trace, FailurePattern(membership, schedule))
        assert result.ok, result.violations


# ----------------------------------------------------------------------
# Consensus — correctness on random scenarios
# ----------------------------------------------------------------------
def _run_consensus(membership, schedule, factory, detectors_stabilization, seed, horizon):
    from repro.runtime.engine import default_consensus_detectors

    proposals = {process: f"v{process.index}" for process in membership.processes}
    system = build_system(
        membership=membership,
        timing=AsynchronousTiming(min_latency=0.1, max_latency=2.0),
        program_factory=lambda pid, identity: factory(proposals[pid]),
        crash_schedule=schedule,
        detectors=default_consensus_detectors(detectors_stabilization),
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=horizon, stop_when=lambda sim: sim.all_correct_decided())
    pattern = FailurePattern(membership, schedule)
    return validate_consensus(trace, pattern, proposals)


class TestConsensusPropertyBased:
    @SLOW_SETTINGS
    @given(shape=system_shape(), data=st.data(), seed=st.integers(0, 1_000))
    def test_figure8_correct_on_random_minority_crash_scenarios(self, shape, data, seed):
        n, distinct = shape
        membership = membership_with_distinct_ids(n, distinct)
        max_faulty = (n - 1) // 2
        crashes = data.draw(crash_choice(n, max_faulty))
        schedule = CrashSchedule.at_times(crashes)
        verdict = _run_consensus(
            membership,
            schedule,
            lambda proposal: HOmegaMajorityConsensus(proposal, n=n),
            detectors_stabilization=15.0,
            seed=seed,
            horizon=600.0,
        )
        assert verdict.validity_ok and verdict.agreement_ok, verdict.violations
        assert verdict.termination_ok, verdict.violations

    @SLOW_SETTINGS
    @given(shape=system_shape(), data=st.data(), seed=st.integers(0, 1_000))
    def test_figure9_correct_on_random_any_crash_scenarios(self, shape, data, seed):
        n, distinct = shape
        membership = membership_with_distinct_ids(n, distinct)
        crashes = data.draw(crash_choice(n, n - 1))
        schedule = CrashSchedule.at_times(crashes)
        verdict = _run_consensus(
            membership,
            schedule,
            lambda proposal: HOmegaHSigmaConsensus(proposal),
            detectors_stabilization=15.0,
            seed=seed,
            horizon=700.0,
        )
        assert verdict.validity_ok and verdict.agreement_ok, verdict.violations
        assert verdict.termination_ok, verdict.violations


# ----------------------------------------------------------------------
# The HΣ safety decision procedure vs brute force
# ----------------------------------------------------------------------
def _brute_force_disjoint(membership, holders_a, multiset_a, holders_b, multiset_b):
    def realisations(holders, multiset):
        holders = sorted(holders)
        for size in [len(multiset)]:
            for combo in itertools.combinations(holders, size):
                if membership.identity_multiset(combo) == multiset:
                    yield frozenset(combo)

    for quorum_a in realisations(holders_a, multiset_a):
        for quorum_b in realisations(holders_b, multiset_b):
            if not quorum_a & quorum_b:
                return True
    return False


class TestDisjointQuorumDecision:
    @settings(max_examples=60, deadline=None)
    @given(
        identities=st.lists(st.sampled_from(["A", "B", "C"]), min_size=2, max_size=5),
        mask_a=st.integers(min_value=0, max_value=31),
        mask_b=st.integers(min_value=0, max_value=31),
        pick_a=st.integers(min_value=0, max_value=31),
        pick_b=st.integers(min_value=0, max_value=31),
    )
    def test_matches_brute_force(self, identities, mask_a, mask_b, pick_a, pick_b):
        membership = Membership.of(identities)
        processes = membership.processes
        holders_a = {p for i, p in enumerate(processes) if mask_a >> i & 1}
        holders_b = {p for i, p in enumerate(processes) if mask_b >> i & 1}
        quorum_a = [p for i, p in enumerate(processes) if pick_a >> i & 1 and p in holders_a]
        quorum_b = [p for i, p in enumerate(processes) if pick_b >> i & 1 and p in holders_b]
        multiset_a = membership.identity_multiset(quorum_a)
        multiset_b = membership.identity_multiset(quorum_b)
        if multiset_a.is_empty() or multiset_b.is_empty():
            return
        expected = _brute_force_disjoint(
            membership, holders_a, multiset_a, holders_b, multiset_b
        )
        actual = _disjoint_quora_exist(
            membership.identity_of, holders_a, multiset_a.counts, holders_b, multiset_b.counts
        )
        assert actual == expected
