"""A digest-keyed on-disk cache of completed runs.

Repeated and resumed sweeps are a fact of life at paper scale: the same quick
configurations are re-run on every CLI invocation, a full sweep interrupted
half-way is restarted from zero, and regenerating one table re-executes eight
others.  :class:`RunCache` memoizes completed runs on content-derived keys so
all of that recompute collapses into file reads:

* declarative runs (``Engine.run`` / ``run_many`` / ``run_sweep``) key on
  ``(canonical-spec-hash, seed)`` — see
  :func:`~repro.runtime.spec.canonical_spec_hash`.  Editing *any* part of a
  scenario changes its hash, so stale entries can never be served; a new seed
  is simply a new key;
* custom functions (``Engine.sweep``) key on the function's
  qualified name plus the canonical JSON of its config (which carries the
  seed).  The function is assumed to be a pure function of its config — the
  same contract parallel dispatch already requires.

There is one entry per work item, ``{"value", "digests"}`` (see
:func:`repro.runtime.engine.run_item`), whoever executed it: engine runs and
fabric runs over one directory serve each other's hits, digests included.

Entries are one JSON file each, written atomically (temp file +
``os.replace``), so concurrent engines — including worker processes of two
simultaneous sweeps — can share a cache directory.  A corrupt or unreadable
entry is treated as a miss and rewritten.  Fidelity is guaranteed by
construction: a payload is only stored if it survives a JSON round-trip
unchanged, so a cache hit yields byte-identical rows and tables to a fresh
run.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Mapping

from ..retry import RetryExhaustedError, RetryPolicy, retry_call

__all__ = ["RunCache"]

#: Bumped whenever a stored value changes shape, so an old entry misses
#: instead of serving it: ``/3`` when records gained ``<check>_violations``,
#: ``/4`` when E5's and E9's sweep rows lost their config-derived columns.
_SCHEMA = "run-cache/4"

#: Transient filesystem hiccups (NFS blips, EMFILE pressure from a worker
#: fleet, a directory briefly unwritable) should not silently cost a cache
#: entry that took a full simulation to produce: writes retry briefly with
#: decorrelated jitter before giving up.  Kept short — a cache write is
#: best-effort and must never stall a sweep.
_PUT_RETRY = RetryPolicy(base=0.01, cap=0.1, max_attempts=3, deadline=1.0)


class RunCache:
    """One directory of memoized run outcomes (see the module docstring)."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    @classmethod
    def coerce(cls, value: "RunCache | str | os.PathLike | None") -> "RunCache | None":
        """``None`` → ``None``; a path → a cache rooted there; a cache → itself."""
        if value is None or isinstance(value, RunCache):
            return value
        return cls(value)

    # -- keys ----------------------------------------------------------
    @staticmethod
    def record_key(spec: Any) -> str:
        """Key for a declarative run: ``(canonical-spec-hash, seed)``."""
        return f"rec-{spec.canonical_hash()}-{int(spec.seed):08x}"

    @staticmethod
    def function_name(fn: "Callable[..., Any] | str | None") -> str | None:
        """``module.qualname`` of ``fn`` — or ``None`` when that does not identify it.

        A string is taken to be that name already (what a plan stores).
        Lambdas and functions defined inside other functions share ambiguous
        qualnames (``<lambda>``, ``…<locals>…``): two different such
        functions would collide on the same key and silently serve each
        other's cached outcomes, and no worker could re-import them from a
        plan, so they are never cached and never planned (module-level
        functions — the only kind the pool executors accept anyway — are).
        """
        if isinstance(fn, str):
            return fn
        module = getattr(fn, "__module__", "") or ""
        qualname = getattr(fn, "__qualname__", "") or ""
        if not module or not qualname or "<lambda>" in qualname or "<locals>" in qualname:
            return None
        return f"{module}.{qualname}"

    @staticmethod
    def outcome_key_named(fn_name: str, config: Mapping[str, Any]) -> str:
        """Key for the function named ``fn_name`` applied to one config.

        Keyed on the dotted name, not the function object: the fabric plans
        work as plain JSON — a plan item names its function
        (``module.qualname``) rather than pickling it — so engine, planner and
        worker derive the *same* key, and an entry the fabric wrote is a later
        engine run's hit and vice versa.
        """
        text = json.dumps(
            {"fn": fn_name, "config": dict(config)},
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return f"row-{hashlib.sha256(text.encode('utf-8')).hexdigest()}"

    # -- storage -------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored payload for ``key``, or ``None`` (counted as a miss)."""
        try:
            with open(self._path(key), encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(entry, dict) or entry.get("schema") != _SCHEMA:
            self.misses += 1
            return None
        self.hits += 1
        return entry.get("payload")

    def put(self, key: str, payload: Mapping[str, Any]) -> bool:
        """Store ``payload`` under ``key``; returns whether it was cached.

        Payloads that do not survive a JSON round-trip unchanged (tuples,
        exotic value types) are silently skipped rather than stored lossily —
        a cache hit must reproduce a fresh run exactly, or not exist.
        """
        payload = dict(payload)
        try:
            text = json.dumps(
                {"schema": _SCHEMA, "payload": payload}, sort_keys=True
            )
        except (TypeError, ValueError):
            return False
        if json.loads(text)["payload"] != payload:
            return False
        path = self._path(key)
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")

        def _write() -> None:
            with open(temp, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            os.replace(temp, path)

        try:
            retry_call(
                _write,
                policy=_PUT_RETRY,
                retry_on=(OSError,),
                describe=f"cache write {path.name}",
            )
        except RetryExhaustedError:
            # Best-effort: a cache that cannot be written is a slower run,
            # not a failed one.  Leave no temp litter behind.
            try:
                os.unlink(temp)
            except OSError:
                pass
            return False
        return True

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def __repr__(self) -> str:
        return f"RunCache({str(self.root)!r}, hits={self.hits}, misses={self.misses})"
