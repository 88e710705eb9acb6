"""Tests for the Figure 9 consensus algorithm (HAS[HΩ, HΣ])."""

from __future__ import annotations

import pytest

from repro.consensus import CONSENSUS_CHECKS
from repro.runtime import crashes_at, execute_spec, scenario

from .helpers import failed_checks


def figure9(*, stabilization: float = 20.0, noise_period=5.0):
    """Figure 9 under the three consensus checks, before its system is chosen."""
    return (
        scenario("figure9")
        .detectors("HOmega", "HSigma", stabilization=stabilization, noise_period=noise_period)
        .consensus("homega_hsigma")
        .check(*CONSENSUS_CHECKS)
        .horizon(500.0)
        .seed(23)
    )


class TestFigureNineCorrectness:
    @pytest.mark.parametrize(
        "shape",
        [
            lambda builder: builder.homonyms([2, 2, 1]),
            lambda builder: builder.processes(4).unique_ids(),
            lambda builder: builder.processes(4).anonymous(),
        ],
        ids=["homonyms", "unique", "anonymous"],
    )
    def test_decides_across_homonymy_patterns(self, shape):
        spec = shape(figure9()).crashes(crashes_at({1: 10.0})).build()
        assert not failed_checks(execute_spec(spec).metrics)

    def test_no_crash(self):
        spec = figure9(stabilization=5.0).homonyms([2, 2]).build()
        assert not failed_checks(execute_spec(spec).metrics)

    def test_majority_of_processes_crash(self):
        # Figure 9 does not need a majority of correct processes: 3 of 5 crash.
        spec = (
            figure9()
            .homonyms([3, 2])
            .crashes(crashes_at({0: 8.0, 1: 12.0, 3: 16.0}))
            .horizon(700.0)
            .build()
        )
        assert not failed_checks(execute_spec(spec).metrics)

    def test_all_but_one_crash(self):
        spec = (
            figure9()
            .processes(4)
            .unique_ids()
            .crashes(crashes_at({0: 6.0, 1: 9.0, 2: 12.0}))
            .horizon(700.0)
            .build()
        )
        assert not failed_checks(execute_spec(spec).metrics)

    def test_multiple_seeds(self):
        spec = figure9().homonyms([2, 2, 1]).crashes(crashes_at({4: 11.0})).build()
        for seed in (1, 2, 3):
            assert not failed_checks(execute_spec(spec.with_seed(seed)).metrics), seed

    def test_decided_value_is_a_proposal(self):
        spec = figure9().homonyms([3, 1]).crashes(crashes_at({0: 10.0})).build()
        assert not failed_checks(execute_spec(spec).metrics)

    def test_stable_detectors_decide_quickly(self):
        spec = figure9(stabilization=0.0, noise_period=None).homonyms([2, 1]).build()
        metrics = execute_spec(spec).metrics
        assert not failed_checks(metrics)
        assert metrics["rounds"] is not None and metrics["rounds"] <= 2
