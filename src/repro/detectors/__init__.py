"""Failure-detector classes, oracles, query views, and property checkers.

The paper works with three families of failure-detector classes:

* classical (unique identifiers): ``P``, ``◇P`` (its complement), ``Ω``, ``Σ``;
* anonymous: ``AP``, ``AΩ``, ``AΣ``;
* homonymous (this paper's contribution): ``◇HP``, ``HΩ``, ``HΣ``;

plus the auxiliary class ``ℰ`` (Definition 1) used by the HΣ → Σ reduction.

For every class this package provides:

* a *query view* — the per-process variables the class exposes
  (:mod:`repro.detectors.views`);
* an *oracle* — a ground-truth implementation parameterised by a
  stabilization time, used to enrich asynchronous systems exactly as the
  paper writes ``HAS[HΩ]`` (:mod:`repro.detectors.classical`,
  :mod:`repro.detectors.anonymous`, :mod:`repro.detectors.homonymous`,
  :mod:`repro.detectors.script`);
* a *property checker* that validates a recorded output trace against the
  run's failure pattern (:mod:`repro.detectors.properties`).

:mod:`repro.detectors.detection` holds the one judge of ``declared_dead``
records (detection latency, missed detections, false suspicions) behind the
``hb_detection`` / ``topo_detection`` checks and the churn checker.
"""

from .anonymous import AOmegaOracle, APOracle, ASigmaOracle
from .base import OracleDetector, OutputKeys
from .classes import DetectorClass, detector_catalog
from .classical import DiamondPOracle, OmegaOracle, PerfectOracle, SigmaOracle
from .detection import check_hb_detection, check_topo_detection, judge_detections, median_iqr
from .homonymous import DiamondHPOracle, HOmegaOracle, HSigmaOracle
from .properties import (
    CheckResult,
    check_aomega_election,
    check_ap,
    check_asigma,
    check_diamond_hp,
    check_diamond_p,
    check_homega_election,
    check_hsigma,
    check_omega_election,
    check_script_e,
    check_sigma,
)
from .probe import (
    DetectorProbeProgram,
    aomega_probes,
    ap_probes,
    asigma_probes,
    diamond_hp_probes,
    diamond_p_probes,
    homega_probes,
    hsigma_probes,
    omega_probes,
    script_e_probes,
    sigma_probes,
)
from .script import ScriptEOracle
from .views import (
    AOmegaView,
    APView,
    ASigmaView,
    DiamondHPView,
    DiamondPView,
    HOmegaView,
    HSigmaView,
    OmegaView,
    ScriptEView,
    SigmaView,
)

__all__ = [
    "AOmegaOracle",
    "AOmegaView",
    "APOracle",
    "APView",
    "ASigmaOracle",
    "ASigmaView",
    "CheckResult",
    "DetectorClass",
    "DetectorProbeProgram",
    "DiamondHPOracle",
    "DiamondHPView",
    "DiamondPOracle",
    "DiamondPView",
    "HOmegaOracle",
    "HOmegaView",
    "HSigmaOracle",
    "HSigmaView",
    "OmegaOracle",
    "OmegaView",
    "OracleDetector",
    "OutputKeys",
    "PerfectOracle",
    "ScriptEOracle",
    "ScriptEView",
    "SigmaOracle",
    "SigmaView",
    "check_aomega_election",
    "check_ap",
    "check_asigma",
    "check_diamond_hp",
    "check_diamond_p",
    "check_hb_detection",
    "check_homega_election",
    "check_hsigma",
    "check_omega_election",
    "check_script_e",
    "check_sigma",
    "check_topo_detection",
    "detector_catalog",
    "judge_detections",
    "median_iqr",
    "aomega_probes",
    "ap_probes",
    "asigma_probes",
    "diamond_hp_probes",
    "diamond_p_probes",
    "homega_probes",
    "hsigma_probes",
    "omega_probes",
    "script_e_probes",
    "sigma_probes",
]
