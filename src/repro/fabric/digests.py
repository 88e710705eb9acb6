"""Folding per-run determinism digests into manifest digests.

One simulation run yields one 64-bit digest (see
:attr:`repro.sim.events.EventQueue.digest`).  A *manifest* folds an ordered
sequence of them into a single 64-bit fingerprint with an FNV-style
multiply-xor, so "these two sweeps dispatched exactly the same events, run
for run, in the same order" is one string comparison.  The fold is order
sensitive on purpose: input order is part of what the fabric guarantees.

These helpers are the single source of truth for the fold:
:meth:`~repro.fabric.coordinator.FabricResult.manifest` is built on them, and
``python -m repro.verify`` compares that manifest across every way of
executing a plan, which is what makes "sharded == serial" checkable as
manifest equality.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["CORE_EXPERIMENTS", "fold_digests", "fold_named"]

_DIGEST_MASK = 0xFFFFFFFFFFFFFFFF
_FNV_PRIME = 1099511628211

#: The experiments folded into the historical ``ALL`` manifest digest.
#: Frozen at E1–E9: manifests saved before the KV workload landed must keep
#: matching, so newer experiments fold into ``FULL`` instead of moving
#: ``ALL``.
CORE_EXPERIMENTS = tuple(f"E{i}" for i in range(1, 10))


def fold_digests(digests: Iterable[int]) -> int:
    """Fold an ordered sequence of 64-bit digests into one."""
    folded = 0
    for digest in digests:
        folded = ((folded * _FNV_PRIME) ^ digest) & _DIGEST_MASK
    return folded


def fold_named(manifest: Mapping[str, str], names: Iterable[str]) -> str:
    """Fold the hex digests of ``names`` (sorted) from a manifest mapping."""
    return f"{fold_digests(int(manifest[name], 16) for name in sorted(names)):016x}"
