"""The experiment harness: E1–E12, each regenerating one result of the paper.

Every module ``eN_*`` declares one experiment (the README's Experiments table
says which figure or theorem it regenerates): its ``run`` is an
:class:`~repro.experiments.base.Experiment`, called as ``run(quick=True,
seed=0, engine=None)`` and returning an
:class:`~repro.analysis.runner.ExperimentResult`; ``quick`` trades sweep width
for runtime and is what the test suite and the verifier use.
"""

from . import (
    e1_ohp_convergence,
    e2_hsigma_sync,
    e3_reductions,
    e4_consensus_majority,
    e5_consensus_hsigma,
    e6_homonymy_spectrum,
    e7_coordination_ablation,
    e8_stacked_consensus,
    e9_fault_envelope,
    e10_kv_service,
    e11_sim_vs_real,
    e12_membership_scaling,
)
from ..runtime.registry import EXPERIMENTS, register_experiment
from .base import Experiment

DECLARATIONS: tuple[Experiment, ...] = (
    e1_ohp_convergence.run,
    e2_hsigma_sync.run,
    e3_reductions.run,
    e4_consensus_majority.run,
    e5_consensus_hsigma.run,
    e6_homonymy_spectrum.run,
    e7_coordination_ablation.run,
    e8_stacked_consensus.run,
    e9_fault_envelope.run,
    e10_kv_service.run,
    e11_sim_vs_real.run,
    e12_membership_scaling.run,
)

#: The deterministic experiments: the CLI's default selection and the
#: determinism-digest manifest.
ALL_EXPERIMENTS = {run.name: run for run in DECLARATIONS if run.deterministic}

#: Experiments that measure wall-clock behaviour (the real transport
#: backend).  They are registered and runnable by name, but their results are
#: not bit-reproducible, so nothing selects them by default.
WALLCLOCK_EXPERIMENTS = {run.name: run for run in DECLARATIONS if not run.deterministic}

for _run in DECLARATIONS:
    if _run.name not in EXPERIMENTS:
        register_experiment(_run.name, _run)

__all__ = ["ALL_EXPERIMENTS", "DECLARATIONS", "WALLCLOCK_EXPERIMENTS"]
