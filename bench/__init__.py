"""The repo benchmark: four workloads, end-to-end metrics, an outside-in trace.

``python3 -m bench run --workload W --seed N --seconds S --trace 0|1`` is the
one command (see ``BENCHMARK.json`` and ``bench/README.md``).  Everything here
drives :mod:`repro` through its public entry points only and lives outside
``src/``: a change that claims a gain may not edit this package.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# The benchmark is run as ``python3 -m bench`` from a bare checkout (no
# PYTHONPATH, nothing installed), so the library is made importable here.
# Pool workers inherit ``sys.path`` through ``spawn``; fabric workers get
# ``PYTHONPATH`` from the coordinator itself.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
