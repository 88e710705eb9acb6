"""Smoke tests for the experiment harness (quick mode).

Each experiment must run, produce rows and a renderable table, and report the
headline result the paper's corresponding claim predicts.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import ExperimentResult
from repro.experiments import ALL_EXPERIMENTS
from repro.runtime.registry import EXPERIMENTS


class TestHarnessShape:
    def test_all_experiments_registered(self):
        # E11 is wall-clock (real backend) and deliberately absent here.
        assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 11)} | {"E12"}

    @pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
    def test_each_experiment_produces_rows_and_table(self, name):
        result = ALL_EXPERIMENTS[name](quick=True, seed=1)
        assert isinstance(result, ExperimentResult)
        assert result.rows
        table = result.table()
        assert name in table
        assert result.summary


    @pytest.mark.parametrize(
        "name, methods", [("E1", ["sweep"] * 2), ("E3", ["map"]), ("E10", ["run_sweep"])]
    )
    def test_calling_an_experiment_dispatches_exactly_its_declared_work(self, name, methods):
        """Nothing is simulated: the engine records each call and answers one marker row."""

        class RecordingEngine:
            def __init__(self):
                self.calls = []

            def __getattr__(self, method):
                def call(fn, configs):
                    self.calls.append((method, fn, [dict(config) for config in configs]))
                    return [{"call": len(self.calls)}]

                return call

        run = replace(EXPERIMENTS.resolve(name), report=lambda rows: (rows, {"rows": len(rows)}))
        engine = RecordingEngine()
        result = run(quick=True, seed=5, engine=engine)
        declared = [(m, fn, [dict(c) for c in configs]) for m, fn, configs in run.work(True, 5)]
        assert engine.calls == declared
        assert [method for method, _, _ in engine.calls] == methods
        assert result.rows == tuple({"call": index + 1} for index in range(len(methods)))
        assert (result.experiment, result.columns) == (name, run.columns)

    def test_readme_table_lists_every_registered_experiment(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = set(re.findall(r"^\| (E\d+) \| `(\w+)` \|", readme, flags=re.MULTILINE))
        registered = {
            (name, EXPERIMENTS.resolve(name).work.__module__.rpartition(".")[2])
            for name in EXPERIMENTS.names()
        }
        assert listed == registered


class TestExperimentHeadlines:
    def test_e1_detector_converges_and_ablation_fails(self):
        result = ALL_EXPERIMENTS["E1"](quick=True, seed=2)
        assert result.summary["adaptive_all_converged"]
        assert result.summary["adaptive_all_homega_ok"]
        assert not result.summary["fixed_timeout_converged"]

    def test_e2_all_hsigma_properties_hold(self):
        result = ALL_EXPERIMENTS["E2"](quick=True, seed=2)
        assert result.summary["all_properties_hold"]

    def test_e3_all_reductions_emulate_their_target(self):
        result = ALL_EXPERIMENTS["E3"](quick=True, seed=2)
        assert result.summary["all_reductions_ok"]
        assert result.summary["corollary_1_sigma_hsigma_asigma_equivalent"]
        assert result.summary["ap_reaches_homega_in_aas"]
        assert result.summary["asigma_does_not_reach_homega_in_aas"]

    def test_e4_consensus_with_majority_always_correct(self):
        result = ALL_EXPERIMENTS["E4"](quick=True, seed=2)
        assert result.summary["all_terminated"]
        assert result.summary["all_safe"]

    def test_e5_consensus_with_hsigma_survives_majority_crashes(self):
        result = ALL_EXPERIMENTS["E5"](quick=True, seed=2)
        assert result.summary["all_terminated"]
        assert result.summary["all_safe"]
        assert result.summary["runs_with_majority_crashed"] > 0
        assert result.summary["majority_crashed_all_terminated"]

    def test_e6_spectrum_always_correct(self):
        result = ALL_EXPERIMENTS["E6"](quick=True, seed=2)
        assert result.summary["all_terminated"]
        assert result.summary["all_safe"]

    def test_e7_coordination_phase_reduces_rounds(self):
        result = ALL_EXPERIMENTS["E7"](quick=True, seed=2)
        assert result.summary["both_variants_always_safe"]
        assert result.summary["with_coordination_termination_rate"] == 1.0
        # The ablated variant needs strictly more rounds on average.
        assert (
            result.summary["mean_rounds_without_coordination"]
            > result.summary["mean_rounds_with_coordination"]
        )

    def test_e8_stacked_consensus_decides_after_gst(self):
        result = ALL_EXPERIMENTS["E8"](quick=True, seed=2)
        assert result.summary["all_terminated"]
        assert result.summary["all_safe"]
        assert all(
            row["decision_after_gst"] is None or row["decision_after_gst"] > 0
            for row in result.rows
        )

    def test_e9_fault_envelope_erodes_termination_never_safety(self):
        result = ALL_EXPERIMENTS["E9"](quick=True, seed=2)
        # Safety is unconditional: adversarial links never cause disagreement.
        assert result.summary["all_safe"]
        # Reliable-network baselines always decide.
        assert result.summary["baseline_all_decided"]
        # No HΣ quorum fits inside one block of a never-healing partition.
        assert result.summary["success_by_partition"]["permanent"] == 0.0
        # A healed partition is recovered from when the detector stabilises
        # after the heal (label growth re-broadcasts over restored links).
        assert result.summary["healing_recovered_with_late_stabilization"] == 1.0
