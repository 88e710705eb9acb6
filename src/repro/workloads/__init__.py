"""Workload generation: homonymy patterns, crash kinds, churn, the KV service.

These modules build the parameter space the experiments sweep over: how
identifiers are shared (:mod:`repro.workloads.homonymy`), who crashes and when
(:data:`repro.workloads.crashes.CRASH_KINDS`, the table a spec's crash kind
resolves through), who joins and leaves (:mod:`repro.workloads.churn`).  A
complete run — system, detectors, algorithm, horizon — is a
:class:`~repro.runtime.spec.ScenarioSpec`, built with
:func:`repro.runtime.scenario`; its crashes are named with the spec's
constructors (``minority``, ``cascading``, ``leaders``, …), not called here.
"""

from .churn import check_membership_churn, churn_schedule, churn_spec
from .homonymy import membership_with_distinct_ids

__all__ = [
    "check_membership_churn",
    "churn_schedule",
    "churn_spec",
    "membership_with_distinct_ids",
]
