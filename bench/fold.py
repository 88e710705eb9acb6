"""The module fold: one ``cProfile`` pass, ``tottime`` folded by source file.

``Simulation.run`` is opaque to the spans, so this says which sub-layer the
time inside it belongs to.  Only *shares* are reported (they sum to 1): the
profiler charges every Python call but not the work inside native code, so
absolute times are inflated and proportions shift toward call-heavy code —
use it to find the layer, then measure with the end-to-end metrics.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from typing import Callable

import repro

__all__ = ["BUCKETS", "bucket_of", "fold_shares", "profile"]

_REPRO = Path(repro.__file__).resolve().parent

#: Path prefixes relative to ``src/repro`` → bucket; first match wins, so the
#: single-file ``sim`` entries come before nothing else claims them.
_PREFIXES = [
    ("sim/events.py", "fold.sim.events"),
    ("sim/timing.py", "fold.sim.timing_links"),
    ("sim/links.py", "fold.sim.timing_links"),
    ("sim/network.py", "fold.sim.network"),
    ("sim/message.py", "fold.sim.network"),
    ("sim/process.py", "fold.sim.process"),
    ("context.py", "fold.sim.process"),
    ("sim/trace.py", "fold.sim.trace"),
    ("sim/failures.py", "fold.sim.failures"),
    ("sim/", "fold.sim.scheduler"),  # scheduler, clock, rng, system, __init__
    ("consensus/", "fold.consensus"),
    ("detectors/", "fold.detectors"),
    ("reductions/", "fold.detectors"),
    ("algorithms/", "fold.algorithms"),
    ("topology.py", "fold.topology"),
    ("identity.py", "fold.identity_membership"),
    ("membership.py", "fold.identity_membership"),
    ("workloads/kv/", "fold.workloads.kv"),
]
#: Everything else under ``src/repro`` (runtime, analysis, experiments,
#: fabric, transport, chaos, the other workloads, errors, retry).
_REST_OF_REPRO = "fold.runtime"
#: Builtins, the standard library and the harness's own frames.
_OUTSIDE = "fold.builtins_stdlib"

BUCKETS = tuple(dict.fromkeys([bucket for _, bucket in _PREFIXES] + [_REST_OF_REPRO, _OUTSIDE]))


def bucket_of(filename: str) -> str:
    """The one bucket a profiler filename belongs to."""
    try:
        relative = Path(filename).resolve().relative_to(_REPRO).as_posix()
    except (ValueError, OSError):
        return _OUTSIDE  # "~" (builtins), "<string>", stdlib, bench/
    for prefix, bucket in _PREFIXES:
        if relative.startswith(prefix):
            return bucket
    return _REST_OF_REPRO


def profile(fn: Callable[[], None]) -> dict[str, float]:
    """Run ``fn`` under cProfile; ``bucket -> tottime seconds`` (inflated)."""
    profiler = cProfile.Profile()
    profiler.runcall(fn)
    seconds = dict.fromkeys(BUCKETS, 0.0)
    buckets: dict[str, str] = {}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _callers) in pstats.Stats(
        profiler
    ).stats.items():
        bucket = buckets.get(filename)
        if bucket is None:
            bucket = buckets[filename] = bucket_of(filename)
        seconds[bucket] += tottime
    return seconds


def fold_shares(seconds: dict[str, float]) -> dict[str, float]:
    total = sum(seconds.values())
    return {bucket: (value / total if total else 0.0) for bucket, value in seconds.items()}
