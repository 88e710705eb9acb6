"""Seeded random-number streams.

Every source of nondeterminism in a run (link latencies, per-process choices,
crash subsets, workload generation) draws from its own named stream derived
from a single master seed.  This keeps runs reproducible and keeps unrelated
components from perturbing each other's draws when the code evolves.

A stream is made on its first :meth:`RngStreams.stream` call, and its seed
depends only on the master seed and its name, so *when* it is made never
changes what it draws.  The simulator relies on that: a process's
``process:{index}`` stream is made on the process's first draw (a step delay
or ``ctx.random``), so a run whose programs never draw makes none.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["RngStreams"]


class RngStreams:
    """A factory of independent, deterministically seeded ``random.Random`` streams."""

    def __init__(self, master_seed: int) -> None:
        self._master_seed = int(master_seed)
        self._streams: dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        """The master seed this factory was created with."""
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream seed is derived by hashing the master seed together with
        the name, so adding a new stream never shifts the draws of existing
        ones.
        """
        if name not in self._streams:
            digest = hashlib.sha256(f"{self._master_seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def spawn(self, name: str) -> "RngStreams":
        """Derive a child factory (used to give sub-experiments their own space)."""
        digest = hashlib.sha256(f"{self._master_seed}/{name}".encode()).digest()
        return RngStreams(int.from_bytes(digest[:8], "big"))
