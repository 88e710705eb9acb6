"""Tests for the anonymous AΩ + AΣ consensus variant (§5.3 closing remark)."""

from __future__ import annotations

from repro.consensus import CONSENSUS_CHECKS, AnonymousAOmegaASigmaConsensus
from repro.runtime import crashes_at, execute_spec, scenario

from .helpers import failed_checks


def anonymous_figure9(crashes: dict | None = None, *, horizon: float = 500.0):
    """The ``AAS[AΩ, AΣ]`` instance of Figure 9 on five anonymous processes."""
    return (
        scenario("aomega-asigma")
        .processes(5)
        .anonymous()
        .detectors("AOmega", "ASigma", stabilization=20.0)
        .consensus("aomega_asigma")
        .check(*CONSENSUS_CHECKS)
        .crashes(crashes_at(crashes or {}))
        .horizon(horizon)
        .seed(41)
        .build()
    )


class TestAnonymousAOmegaASigma:
    def test_no_crash(self):
        assert not failed_checks(execute_spec(anonymous_figure9()).metrics)

    def test_single_crash(self):
        assert not failed_checks(execute_spec(anonymous_figure9({2: 10.0})).metrics)

    def test_minority_correct(self):
        # AΩ + AΣ tolerates any number of crashes, like Figure 9.
        spec = anonymous_figure9({1: 8.0, 2: 12.0, 3: 16.0}, horizon=700.0)
        assert not failed_checks(execute_spec(spec).metrics)

    def test_multiple_seeds(self):
        spec = anonymous_figure9({4: 9.0})
        for seed in (1, 2, 3):
            assert not failed_checks(execute_spec(spec.with_seed(seed)).metrics), seed

    def test_decided_value_is_a_proposal(self):
        spec = anonymous_figure9({0: 10.0})
        assert execute_spec(spec).metrics["consensus_validity_ok"]

    def test_describe(self):
        program = AnonymousAOmegaASigmaConsensus("v")
        assert "AΩ" in program.describe() or "anonymous" in program.describe()
