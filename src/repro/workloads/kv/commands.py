"""Commands and the replicated key-value state machine.

Commands travel three hops — client → replica (as a ``KV_REQUEST``), replica →
consensus (as a slot proposal), consensus → every replica's store (as the
committed slot value) — so they are encoded as compact JSON strings: hashable,
picklable, deterministic, and *orderable*, which matters because the paper's
coordination phase breaks leader ties with ``min()`` over proposals.

:class:`ReplicatedKV` is the deterministic state machine each replica replays
the committed log into.  Applying the same command sequence always yields the
same store, and the per-request-id dedupe table makes replay idempotent: a
command that reaches the log twice (clients re-broadcast, consensus instances
can adopt an already-committed proposal) mutates the store only once.

A request id names the client's identifier and the request's index, so an
answer is addressed to whoever carries :func:`requester` of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

__all__ = [
    "ApplyResult",
    "ReplicatedKV",
    "decode_command",
    "encode_command",
    "request_id",
    "requester",
]

#: The operations the service understands.
OPERATIONS = ("GET", "SET", "CAS", "DEL")


def request_id(client: str, index: int) -> str:
    """The id of ``client``'s ``index``-th request."""
    return f"{client}:{index}"


def requester(request_id: str) -> str:
    """The identifier of the client that issued ``request_id``."""
    return request_id.rpartition(":")[0]


def encode_command(request_id: str, op: str, key: str, *args: Any) -> str:
    """Encode one client command as a canonical JSON string."""
    if op not in OPERATIONS:
        raise ValueError(f"unknown KV operation: {op!r}")
    return json.dumps([request_id, op, key, *args], separators=(",", ":"))


def decode_command(command: str) -> tuple[str, str, str, tuple[Any, ...]]:
    """Decode a command string into ``(request_id, op, key, args)``."""
    request_id, op, key, *args = json.loads(command)
    return request_id, op, key, tuple(args)


@dataclass(frozen=True, slots=True)
class ApplyResult:
    """The client-visible outcome of applying one command.

    ``status`` is ``"ok"`` for successful operations, ``"fail"`` for a CAS
    whose expectation did not hold, and ``"miss"`` for deleting an absent key.
    ``version`` is the key's per-key monotone version after the command.
    """

    status: str
    value: Any
    version: int


class ReplicatedKV:
    """A deterministic key-value store with per-key versions and dedupe."""

    __slots__ = ("_store", "_versions", "_applied", "commands_applied")

    def __init__(self) -> None:
        self._store: dict[str, Any] = {}
        self._versions: dict[str, int] = {}
        self._applied: dict[str, ApplyResult] = {}
        self.commands_applied = 0

    def read(self, key: str) -> tuple[Any, int]:
        """A local (possibly stale) read: ``(value-or-None, version)``."""
        return self._store.get(key), self._versions.get(key, 0)

    def result_for(self, request_id: str) -> ApplyResult | None:
        """The recorded outcome of an already-applied request, if any."""
        return self._applied.get(request_id)

    def apply(self, command: str) -> ApplyResult | None:
        """Apply one committed command; ``None`` if it was a duplicate."""
        return self.apply_decoded(*decode_command(command))

    def apply_decoded(
        self, request_id: str, op: str, key: str, args: tuple[Any, ...]
    ) -> ApplyResult | None:
        """:meth:`apply` for a command already split by :func:`decode_command`."""
        if request_id in self._applied:
            return None
        result = self._execute(op, key, args)
        self._applied[request_id] = result
        self.commands_applied += 1
        return result

    def _execute(self, op: str, key: str, args: tuple[Any, ...]) -> ApplyResult:
        version = self._versions.get(key, 0)
        if op == "GET":
            return ApplyResult("ok", self._store.get(key), version)
        if op == "SET":
            (value,) = args
            self._store[key] = value
            self._versions[key] = version + 1
            return ApplyResult("ok", value, version + 1)
        if op == "CAS":
            expected, new = args
            if self._store.get(key) != expected:
                return ApplyResult("fail", self._store.get(key), version)
            self._store[key] = new
            self._versions[key] = version + 1
            return ApplyResult("ok", new, version + 1)
        if op == "DEL":
            if key not in self._store:
                return ApplyResult("miss", None, version)
            del self._store[key]
            self._versions[key] = version + 1
            return ApplyResult("ok", None, version + 1)
        raise ValueError(f"unknown KV operation: {op!r}")

    def snapshot(self) -> dict[str, Any]:
        """A copy of the live store (for assertions and debugging)."""
        return dict(self._store)

    def __len__(self) -> int:
        return len(self._store)
