"""Failure-detector classes: one table, one oracle, the axioms, and the views.

A failure-detector class is a row of :data:`CLASSES`
(:mod:`repro.detectors.table`) — classical ``P``, ``◇P̄``, ``Ω``, ``Σ`` and the
auxiliary ``ℰ`` of Definition 1; anonymous ``AP``, ``AΩ``, ``AΣ``; and the
paper's homonymous ``◇HP``, ``HΩ``, ``HΣ``.  A row names:

* the *outputs* — the per-process variables the class exposes; ``row.view``
  is the query view derived from them (:mod:`repro.detectors.views`);
* what the *oracle* answers — ``row.oracle(services, stabilization_time=,
  noise_period=)`` is the ground-truth :class:`OracleDetector`
  (:mod:`repro.detectors.base`) that enriches an asynchronous system exactly as
  the paper writes ``HAS[HΩ]``;
* the *axioms* — ``row.judge(trace, pattern)`` validates the outputs any
  detector of the class (oracle, reduction, Figures 3 / 6 / 7) recorded under
  ``row.keys`` against the run's failure pattern, with one function per output
  shape (:mod:`repro.detectors.properties`);
* ``row.probes()`` — what a :class:`DetectorProbeProgram` samples.

:mod:`repro.detectors.detection` holds the one judge of ``declared_dead``
records (detection latency, missed detections, false suspicions) behind the
``hb_detection`` / ``topo_detection`` checks and the churn checker.
"""

from .base import OracleDetector
from .detection import check_hb_detection, check_topo_detection, judge_detections, median_iqr
from .probe import DetectorProbeProgram
from .properties import CheckResult
from .table import CLASSES, DetectorClass, DetectorRow

__all__ = [
    "CLASSES",
    "CheckResult",
    "DetectorClass",
    "DetectorProbeProgram",
    "DetectorRow",
    "OracleDetector",
    "check_hb_detection",
    "check_topo_detection",
    "judge_detections",
    "median_iqr",
]
