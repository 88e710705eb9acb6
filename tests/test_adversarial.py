"""Adversarial and fault-injection tests.

Consensus safety (validity + agreement) must never depend on the failure
detector behaving well — only termination may.  These tests feed the
algorithms deliberately broken detectors and adversarial schedules, and also
check that the validators and property checkers actually catch broken
*algorithms* (so a regression in the real algorithms could not hide behind a
permissive harness).
"""

from __future__ import annotations

import pytest

from repro.consensus import (
    HOmegaHSigmaConsensus,
    HOmegaMajorityConsensus,
    validate_consensus,
)
from repro.consensus.base import ConsensusProgram
from repro.detectors import CLASSES
from repro.detectors.views import HOmegaView, HSigmaView
from repro.identity import IdentityMultiset, ProcessId
from repro.membership import grouped_identities
from repro.sim import AsynchronousTiming, CrashSchedule, Simulation, build_system
from repro.sim.failures import FailurePattern


def p(index: int) -> ProcessId:
    return ProcessId(index)


# ----------------------------------------------------------------------
# Broken detectors (safety of consensus must survive them)
# ----------------------------------------------------------------------
class NeverStableHOmega:
    """An HΩ 'detector' that keeps electing different, often wrong, leaders."""

    def __init__(self, services):
        self._membership = services.membership
        self._clock = services.clock
        # Wake blocked processes periodically so their wait conditions are
        # re-evaluated against the ever-changing output.
        boundary = 5.0
        while boundary < 400.0:
            services.schedule(boundary, services.poke_all)
            boundary += 5.0

    def view_for(self, process):
        identities = sorted(self._membership.identity_multiset().support(), key=repr)

        def read_pair():
            window = int(self._clock.now // 5)
            identity = identities[(process.index + window) % len(identities)]
            multiplicity = 1 + (window + process.index) % self._membership.size
            return identity, multiplicity

        return HOmegaView(read_pair)


class EmptyHSigma:
    """An HΣ 'detector' that never provides any quorum (blocks liveness only)."""

    def __init__(self, services):
        self._services = services

    def view_for(self, process):
        return HSigmaView(lambda: (frozenset(), frozenset()))


def run_with_detectors(membership, factory, detectors, *, crashes=None, seed=3, until=200.0):
    proposals = {process: f"v{process.index}" for process in membership.processes}
    schedule = CrashSchedule.at_times(crashes or {})
    system = build_system(
        membership=membership,
        timing=AsynchronousTiming(min_latency=0.1, max_latency=2.0),
        program_factory=lambda pid, identity: factory(proposals[pid]),
        crash_schedule=schedule,
        detectors=detectors,
        seed=seed,
    )
    simulation = Simulation(system)
    trace = simulation.run(until=until, stop_when=lambda sim: sim.all_correct_decided())
    pattern = FailurePattern(membership, schedule)
    verdict = validate_consensus(trace, pattern, proposals, require_termination=False)
    return verdict


class TestConsensusSafetyUnderBrokenDetectors:
    def test_figure8_safe_with_never_stable_homega(self):
        membership = grouped_identities([2, 2, 1])
        for seed in (1, 2, 3, 4):
            verdict = run_with_detectors(
                membership,
                lambda proposal: HOmegaMajorityConsensus(proposal, n=membership.size),
                {"HOmega": NeverStableHOmega},
                crashes={p(4): 10.0},
                seed=seed,
            )
            # Termination is not guaranteed (the detector never stabilises),
            # but validity and agreement must hold in whatever was decided.
            assert verdict.validity_ok and verdict.agreement_ok, verdict.violations

    def test_figure9_safe_with_broken_detectors(self):
        membership = grouped_identities([2, 2])
        for seed in (1, 2):
            verdict = run_with_detectors(
                membership,
                lambda proposal: HOmegaHSigmaConsensus(proposal),
                {"HOmega": NeverStableHOmega, "HSigma": EmptyHSigma},
                seed=seed,
            )
            assert verdict.validity_ok and verdict.agreement_ok, verdict.violations

    def test_figure9_with_empty_hsigma_never_decides(self):
        # With no quorums ever available and nobody else deciding, Phase 1 can
        # never complete: the algorithm must block rather than guess.
        membership = grouped_identities([2, 2])
        verdict = run_with_detectors(
            membership,
            lambda proposal: HOmegaHSigmaConsensus(proposal),
            {
                "HOmega": lambda services: CLASSES["HOmega"].oracle(services, stabilization_time=5.0),
                "HSigma": EmptyHSigma,
            },
            seed=9,
        )
        assert not verdict.decided_values
        assert verdict.validity_ok and verdict.agreement_ok


# ----------------------------------------------------------------------
# Broken algorithms (the harness must catch them)
# ----------------------------------------------------------------------
class SelfishConsensus(ConsensusProgram):
    """A broken 'consensus' that simply decides its own proposal immediately."""

    def run_round(self, ctx, round_number):
        self.decide(ctx, self.proposal)
        return
        yield  # pragma: no cover - keeps this a generator

    def _on_decide(self, ctx, message):
        # Deliberately ignore other decisions: a real algorithm must not.
        return


class TestValidatorsCatchBrokenAlgorithms:
    def test_selfish_consensus_breaks_agreement_and_is_caught(self):
        membership = grouped_identities([2, 2, 1])
        verdict = run_with_detectors(
            membership,
            lambda proposal: SelfishConsensus(proposal),
            {"HOmega": lambda services: CLASSES["HOmega"].oracle(services, stabilization_time=5.0)},
            seed=2,
        )
        assert not verdict.agreement_ok
        assert verdict.validity_ok  # each decided value was proposed…
        assert not verdict.ok       # …but they are not all equal.

    def test_broken_hsigma_oracle_is_caught_by_property_checker(self):
        # A detector whose quorums are per-process singletons cannot satisfy
        # the HΣ safety property; the checker must flag it.
        membership = grouped_identities([2, 2])

        class SingletonHSigma:
            def __init__(self, services):
                self._membership = services.membership

            def view_for(self, process):
                identity = self._membership.identity_of(process)
                label = f"self-{process.index}"
                quorum = IdentityMultiset([identity])
                return HSigmaView(lambda: (frozenset({(label, quorum)}), frozenset({label})))

        from repro.detectors.probe import DetectorProbeProgram

        schedule = CrashSchedule.none()
        system = build_system(
            membership=membership,
            timing=AsynchronousTiming(min_latency=0.1, max_latency=1.0),
            program_factory=lambda pid, identity: DetectorProbeProgram(
                CLASSES["HSigma"].probes(), period=1.0
            ),
            detectors={"HSigma": SingletonHSigma},
            crash_schedule=schedule,
            seed=1,
        )
        trace = Simulation(system).run(until=20.0)
        result = CLASSES["HSigma"].judge(trace, FailurePattern(membership, schedule))
        assert not result.ok
        assert any("disjoint" in violation for violation in result.violations)
