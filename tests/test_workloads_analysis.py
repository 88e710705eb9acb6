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
from repro.consensus import CONSENSUS_CHECKS
from repro.detectors.properties import CheckResult
from repro.errors import ConfigurationError
from repro.identity import ProcessId
from repro.membership import unique_identities
from repro.runtime import (
    CrashSpec,
    Engine,
    cascading,
    fraction,
    leaders,
    measure_run,
    minority,
    no_crashes,
    scenario,
    simulate_spec,
)
from repro.workloads import membership_with_distinct_ids

from .helpers import failed_checks


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


class TestCrashWorkloads:
    def test_no_crashes(self):
        assert no_crashes().build(unique_identities(3)).faulty == frozenset()

    def test_minority_crashes_default_is_largest_minority(self):
        membership = unique_identities(7)
        schedule = minority().build(membership)
        assert len(schedule.faulty) == 3

    def test_minority_crashes_spares_low_identities(self):
        membership = unique_identities(5)
        schedule = minority(count=2).build(membership)
        assert p(0) not in schedule.faulty
        assert p(4) in schedule.faulty

    def test_crash_fraction(self):
        membership = unique_identities(6)
        schedule = fraction(0.5, seed=3).build(membership)
        assert len(schedule.faulty) == 3
        assert fraction(0.0).build(membership).faulty == frozenset()

    def test_crash_fraction_capped(self):
        membership = unique_identities(3)
        schedule = fraction(1.0, seed=1).build(membership)
        assert len(schedule.faulty) == 2

    def test_crash_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            fraction(1.5).build(unique_identities(3))

    def test_cascading_crashes(self):
        membership = unique_identities(5)
        schedule = cascading(3, first_at=5.0, interval=10.0).build(membership)
        times = sorted(event.time for event in schedule.events)
        assert times == [5.0, 15.0, 25.0]

    def test_cascading_crashes_partial_broadcast(self):
        membership = unique_identities(4)
        schedule = cascading(1, partial_broadcast_fraction=0.5).build(membership)
        assert schedule.events[0].partial_broadcast_fraction == 0.5

    def test_leader_targeted_crashes_kill_smallest_identities(self):
        membership = unique_identities(5)
        schedule = leaders(2).build(membership)
        assert schedule.faulty == {p(0), p(1)}

    def test_leaders_default_is_the_largest_minority_and_at_least_one(self):
        assert leaders().build(unique_identities(7)).faulty == {p(0), p(1), p(2)}
        assert leaders().build(unique_identities(2)).faulty == {p(0)}

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

    def test_too_many_crashes_rejected_or_capped(self):
        membership = unique_identities(3)
        # A cascade is capped at n − 1, so one process always stays correct …
        schedule = cascading(3).build(membership)
        assert schedule.faulty == {p(1), p(2)}
        assert [event.time for event in schedule.events] == [5.0, 15.0]
        # … while an explicit leader count that leaves no correct process is an error.
        with pytest.raises(ConfigurationError):
            leaders(3).build(membership)


class TestConsensusScenario:
    def test_scenario_runs_and_validates(self):
        spec = (
            scenario()
            .processes(5)
            .distinct_ids(2)
            .crashes(minority(at=8.0, count=1))
            .detectors("HOmega", "HSigma", stabilization=10.0)
            .consensus("homega_majority")
            .check(*CONSENSUS_CHECKS)
            .horizon(400.0)
            .seed(5)
            .build()
        )
        simulation = simulate_spec(spec)
        metrics = consensus_metrics(simulation.trace, simulation.failure_pattern)
        assert metrics["decided"] and metrics["safe"]
        assert metrics["broadcasts"] > 0
        record = measure_run(spec, simulation).metrics
        assert not failed_checks(record)
        assert dict(list(record.items())[:6]) == metrics


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
