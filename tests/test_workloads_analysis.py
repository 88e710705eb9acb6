"""Tests for the workload generators and the analysis helpers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    ParameterSweep,
    aggregate_rows,
    consensus_metrics,
    convergence_statistics,
    detector_convergence_time,
    format_value,
    render_series,
    render_table,
)
from repro.consensus import validate_consensus
from repro.detectors.properties import CheckResult
from repro.errors import ConfigurationError
from repro.identity import ProcessId
from repro.membership import unique_identities
from repro.runtime import CrashSpec, Engine, distinct_proposals, minority, scenario, simulate_spec
from repro.workloads import (
    cascading_crashes,
    crash_fraction,
    homonymy_spectrum,
    leader_targeted_crashes,
    membership_with_distinct_ids,
    minority_crashes,
    no_crashes,
)


def p(index: int) -> ProcessId:
    return ProcessId(index)


class TestHomonymyWorkloads:
    def test_membership_with_distinct_ids(self):
        membership = membership_with_distinct_ids(5, 2)
        assert membership.size == 5
        assert len(membership.distinct_identities) == 2
        assert membership.homonymy_degree == 3

    def test_extremes(self):
        assert membership_with_distinct_ids(4, 4).is_uniquely_identified
        assert membership_with_distinct_ids(4, 1).is_anonymous

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            membership_with_distinct_ids(3, 0)
        with pytest.raises(ConfigurationError):
            membership_with_distinct_ids(3, 4)
        with pytest.raises(ConfigurationError):
            membership_with_distinct_ids(0, 1)

    def test_spectrum_includes_both_extremes(self):
        spectrum = homonymy_spectrum(5)
        assert len(spectrum) == 5
        assert spectrum[0].is_anonymous
        assert spectrum[-1].is_uniquely_identified

    def test_spectrum_with_limited_points(self):
        spectrum = homonymy_spectrum(8, points=3)
        assert spectrum[0].is_anonymous
        assert spectrum[-1].is_uniquely_identified
        with pytest.raises(ConfigurationError):
            homonymy_spectrum(5, points=1)


class TestCrashWorkloads:
    def test_no_crashes(self):
        assert no_crashes().faulty == frozenset()

    def test_minority_crashes_default_is_largest_minority(self):
        membership = unique_identities(7)
        schedule = minority_crashes(membership)
        assert len(schedule.faulty) == 3

    def test_minority_crashes_spares_low_identities(self):
        membership = unique_identities(5)
        schedule = minority_crashes(membership, count=2)
        assert p(0) not in schedule.faulty
        assert p(4) in schedule.faulty

    def test_crash_fraction(self):
        membership = unique_identities(6)
        schedule = crash_fraction(membership, 0.5, seed=3)
        assert len(schedule.faulty) == 3
        assert crash_fraction(membership, 0.0).faulty == frozenset()

    def test_crash_fraction_capped(self):
        membership = unique_identities(3)
        schedule = crash_fraction(membership, 1.0, seed=1)
        assert len(schedule.faulty) == 2

    def test_crash_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            crash_fraction(unique_identities(3), 1.5)

    def test_cascading_crashes(self):
        membership = unique_identities(5)
        schedule = cascading_crashes(membership, 3, first_at=5.0, interval=10.0)
        times = sorted(event.time for event in schedule.events)
        assert times == [5.0, 15.0, 25.0]

    def test_cascading_crashes_partial_broadcast(self):
        membership = unique_identities(4)
        schedule = cascading_crashes(membership, 1, partial_broadcast_fraction=0.5)
        assert schedule.events[0].partial_broadcast_fraction == 0.5

    def test_leader_targeted_crashes_kill_smallest_identities(self):
        membership = unique_identities(5)
        schedule = leader_targeted_crashes(membership, 2)
        assert schedule.faulty == {p(0), p(1)}

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "minority", "params": {"count": -1}},
            {"kind": "cascading", "params": {"count": -1}},
            {"kind": "leaders", "params": {"count": -2}},
        ],
    )
    def test_a_negative_count_is_not_a_majority_of_crashes(self, payload):
        # `[-count:]` made four victims of minority(count=-1) on n=5 while the
        # builder counted −1 and let Figure 8 run over it.
        crashes = CrashSpec.from_dict(payload)
        with pytest.raises(ConfigurationError, match="non-negative"):
            crashes.build(unique_identities(5))
        with pytest.raises(ConfigurationError, match="non-negative"):
            (
                scenario()
                .processes(5)
                .unique_ids()
                .detectors("HOmega", stabilization=5.0)
                .consensus("homega_majority")
                .crashes(crashes)
                .build()
            )

    def test_too_many_crashes_rejected(self):
        membership = unique_identities(3)
        with pytest.raises(ConfigurationError):
            cascading_crashes(membership, 3)
        with pytest.raises(ConfigurationError):
            leader_targeted_crashes(membership, 3)


class TestConsensusScenario:
    def test_scenario_runs_and_validates(self):
        spec = (
            scenario()
            .processes(5)
            .distinct_ids(2)
            .crashes(minority(at=8.0, count=1))
            .detectors("HOmega", "HSigma", stabilization=10.0)
            .consensus("homega_majority")
            .horizon(400.0)
            .seed(5)
            .build()
        )
        simulation = simulate_spec(spec)
        trace, pattern = simulation.trace, simulation.failure_pattern
        proposals = distinct_proposals(simulation.system.membership)
        verdict = validate_consensus(trace, pattern, proposals)
        assert verdict.ok, verdict.violations
        metrics = consensus_metrics(trace, pattern, verdict)
        assert metrics.decided and metrics.safe
        assert metrics.broadcasts > 0
        assert metrics.broadcasts_per_process > 0


class TestAnalysisHelpers:
    def test_format_value(self):
        assert format_value(None) == "—"
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(1.23456) == "1.235"
        assert format_value(2.0) == "2"
        assert format_value("text") == "text"

    def test_render_table(self):
        table = render_table(
            [{"a": 1, "b": 2.5}, {"a": 3, "b": None}], title="demo"
        )
        assert "demo" in table
        assert "a" in table and "b" in table
        assert "—" in table

    def test_render_table_empty(self):
        assert "(no rows)" in render_table([])

    def test_render_series(self):
        series = render_series([(1, 10.0), (2, 20.0)], x_label="n", y_label="time")
        assert "n" in series and "time" in series

    def test_parameter_sweep_generates_all_combinations(self):
        sweep = ParameterSweep({"a": [1, 2], "b": ["x"]}, repetitions=3, base_seed=100)
        configs = list(sweep)
        assert len(configs) == 6
        assert len({config["seed"] for config in configs}) == 6
        assert {config["a"] for config in configs} == {1, 2}

    def test_parameter_sweep_run_merges_config_and_outcome(self):
        sweep = ParameterSweep({"a": [1, 2]}, repetitions=2)
        rows = Engine().sweep(lambda config: {"result": config["a"] * 10}, sweep)
        assert len(rows) == 4
        assert all(row["result"] == row["a"] * 10 for row in rows)

    def test_parameter_sweep_rejects_bad_repetitions(self):
        with pytest.raises(ValueError):
            ParameterSweep({"a": [1]}, repetitions=0)

    def test_aggregate_rows_means_and_rates(self):
        rows = [
            {"group": "g1", "value": 1.0, "ok": True},
            {"group": "g1", "value": 3.0, "ok": False},
            {"group": "g2", "value": 10.0, "ok": True},
        ]
        aggregated = aggregate_rows(rows, group_by=["group"], metrics=["value", "ok"])
        by_group = {entry["group"]: entry for entry in aggregated}
        assert by_group["g1"]["value"] == 2.0
        assert by_group["g1"]["ok"] == 0.5
        assert by_group["g1"]["runs"] == 2
        assert by_group["g2"]["value"] == 10.0

    def test_aggregate_rows_handles_missing_metric(self):
        rows = [{"group": "g", "value": None}, {"group": "g"}]
        aggregated = aggregate_rows(rows, group_by=["group"], metrics=["value"])
        assert aggregated[0]["value"] is None

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([16, 4, 8], [4, 8, 16]),  # by repr: 16, 4, 8
            ([20.0, 5.0, 50.0], [5.0, 20.0, 50.0]),  # by repr: 20.0, 5.0, 50.0
            ([True, False], [False, True]),
            (["ring", "gossip", "full_mesh"], ["full_mesh", "gossip", "ring"]),
            ([10, None, 9.5, True], [None, True, 9.5, 10]),  # by repr: 10, 9.5, None, True
        ],
    )
    def test_aggregate_rows_orders_cells_by_value(self, values, expected):
        rows = [{"key": value, "inner": inner} for value in values for inner in (30.0, 4.0)]
        aggregated = aggregate_rows(rows, group_by=["key", "inner"], metrics=[])
        assert [(entry["key"], entry["inner"]) for entry in aggregated] == [
            (value, inner) for value in expected for inner in (4.0, 30.0)
        ]

    def test_detector_convergence_time(self):
        ok = CheckResult(ok=True, stabilization_time=12.0)
        failed = CheckResult(ok=False, violations=("x",))
        assert detector_convergence_time(ok) == 12.0
        assert detector_convergence_time(failed) is None

    def test_convergence_statistics(self):
        stats = convergence_statistics([1.0, 3.0, None])
        assert stats["runs"] == 3
        assert stats["converged_fraction"] == pytest.approx(2 / 3)
        assert stats["mean"] == 2.0
        assert convergence_statistics([]) == {"runs": 0, "converged_fraction": 0.0}
