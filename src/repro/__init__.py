"""repro — failure detectors and consensus for homonymous distributed systems.

This library reproduces "Failure Detectors in Homonymous Distributed Systems
(with an Application to Consensus)" (Arévalo, Fernández Anta, Imbs, Jiménez,
Raynal — ICDCS 2012): the homonymous failure-detector classes ◇HP, HΩ and HΣ,
their implementations under partial synchrony and synchrony, the reductions
relating them to the classical and anonymous classes, and the two consensus
algorithms built on top of them — all running over a deterministic
discrete-event simulation of crash-prone homonymous message-passing systems.

Typical entry points:

* :mod:`repro.runtime` — **the front door**: declare a run with the fluent
  :func:`~repro.runtime.scenario` builder (membership shape, timing, crashes,
  detector stack, algorithm — validated against the paper's requirement
  table), serialize it as a :class:`~repro.runtime.ScenarioSpec`, and execute
  one spec or a whole sweep through the :class:`~repro.runtime.Engine`
  (serially, or multi-core via ``Engine(jobs=N)``)::

      from repro.runtime import Engine, scenario, cascading

      spec = (scenario().processes(7).homonyms([3, 2, 2])
              .crashes(cascading(4))
              .detectors("HOmega", "HSigma", stabilization=20.0)
              .consensus("homega_hsigma").build())
      record = Engine().run(spec)          # record.metrics["decided"] …

* :mod:`repro.experiments` — the E1–E12 harness, one declared experiment per
  paper result (``python -m repro.experiments --jobs 4``), resolved through
  the runtime registry;
* lower layers, for custom programs and direct control:
  :func:`repro.membership.grouped_identities` & friends build memberships;
  :mod:`repro.sim` builds and runs systems (``build_system`` +
  ``Simulation``); :mod:`repro.detectors` has the oracles, views, and
  property checkers; :mod:`repro.algorithms` the paper's detector
  implementations (Figures 3, 6, 7); :mod:`repro.reductions` the table of
  reductions (each row a program the builder names) and the Figure 5
  relation graph; :mod:`repro.consensus` the Figure 8 and Figure 9
  algorithms, baselines, and the consensus validator; :mod:`repro.workloads`
  the homonymy and churn generators, the crash-kind table and the KV
  service; :mod:`repro.analysis` run metrics, convergence statistics, sweeps
  and table rendering.
"""

from .identity import ANONYMOUS_IDENTITY, Identity, IdentityMultiset, ProcessId
from .membership import (
    Membership,
    anonymous_identities,
    grouped_identities,
    identities_from_multiplicities,
    random_identities,
    unique_identities,
)

__version__ = "1.0.0"

__all__ = [
    "ANONYMOUS_IDENTITY",
    "Identity",
    "IdentityMultiset",
    "Membership",
    "ProcessId",
    "anonymous_identities",
    "grouped_identities",
    "identities_from_multiplicities",
    "random_identities",
    "unique_identities",
    "__version__",
]
