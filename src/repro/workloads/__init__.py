"""Workload generation: homonymy patterns, crash schedules, churn, the KV service.

These helpers build the parameter space the experiments sweep over: how
identifiers are shared (:mod:`repro.workloads.homonymy`), who crashes and when
(:mod:`repro.workloads.crashes`), who joins and leaves
(:mod:`repro.workloads.churn`).  A complete run — system, detectors, algorithm,
horizon — is a :class:`~repro.runtime.spec.ScenarioSpec`, built with
:func:`repro.runtime.scenario`, whose crash and membership sections name these
generators.
"""

from .churn import check_membership_churn, churn_schedule, churn_spec
from .crashes import (
    cascading_crashes,
    crash_fraction,
    leader_targeted_crashes,
    minority_crashes,
    no_crashes,
)
from .homonymy import homonymy_spectrum, membership_with_distinct_ids

__all__ = [
    "cascading_crashes",
    "check_membership_churn",
    "churn_schedule",
    "churn_spec",
    "crash_fraction",
    "homonymy_spectrum",
    "leader_targeted_crashes",
    "membership_with_distinct_ids",
    "minority_crashes",
    "no_crashes",
]
