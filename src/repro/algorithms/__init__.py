"""Message-passing implementations of failure detectors.

Unlike the oracles of :mod:`repro.detectors`, the programs here build their
outputs purely from messages — they are the paper's implementability results:

* :class:`~repro.algorithms.ohp_polling.OhpPollingProgram` — Figure 6,
  implements ◇HP (and, per Corollary 2, HΩ) in ``HPS[∅]``: partially
  synchronous processes, eventually timely links, unknown membership.
* :class:`~repro.algorithms.hsigma_synchronous.HSigmaSynchronousProgram` —
  Figure 7, implements HΣ in ``HSS[∅]``.
* :class:`~repro.algorithms.script_alive.ScriptAliveProgram` — Figure 3,
  implements the auxiliary class ℰ in ``AS[∅]``.
* :func:`~repro.algorithms.heartbeat.HeartbeatMonitorProgram` — the
  HB_PING/HB_ACK monitor of the sim-vs-real validation harness (one class
  per monitoring topology); runs unchanged on the simulator and the TCP
  backend.
* :class:`~repro.algorithms.swim.ClusterMembershipProgram` — the SWIM-style
  join / leave / crash-recover membership service of the churn workload
  (not to be confused with :mod:`repro.membership`, the identity multisets).
"""

from .heartbeat import HeartbeatMonitorProgram
from .hsigma_synchronous import HSigmaSynchronousProgram
from .ohp_polling import OhpPollingProgram
from .script_alive import ScriptAliveProgram

__all__ = [
    "HeartbeatMonitorProgram",
    "HSigmaSynchronousProgram",
    "OhpPollingProgram",
    "ScriptAliveProgram",
]
