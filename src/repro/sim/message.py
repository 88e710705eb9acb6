"""Message envelopes.

The paper's communication primitive is ``broadcast(m)``: one copy of ``m`` is
sent along the directed link from the sender to every process (including the
sender).  The receiving process cannot identify the link a message arrived on,
so the envelope exposes only the message *content* to algorithm code — the
sender is deliberately not reachable from
:class:`~repro.context.ProcessContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Message"]


@dataclass(frozen=True, slots=True)
class Message:
    """An immutable message as seen by the receiving algorithm.

    ``kind`` is the message type tag (``"POLLING"``, ``"PH1"``, ...) and
    ``payload`` an immutable mapping of named fields.  Field access is provided
    through :meth:`__getitem__` and :meth:`get` for readability in algorithm
    code: ``msg["round"]``.

    ``slots=True`` keeps the envelope small and its field access cheap: one
    message object is allocated per ``broadcast(m)`` and then shared by every
    scheduled delivery, so the envelope sits on the simulator's hot path.
    """

    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Defensive copy: the envelope is shared by every scheduled delivery,
        # so a caller-retained payload mapping must not alias into it.
        object.__setattr__(self, "payload", dict(self.payload))

    def __getitem__(self, key: str) -> Any:
        return self.payload[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Return a payload field, or ``default`` when absent."""
        return self.payload.get(key, default)

    def matches(self, **fields: Any) -> bool:
        """Return ``True`` when every named field equals the given value."""
        return all(self.payload.get(key) == value for key, value in fields.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{key}={value!r}" for key, value in self.payload.items())
        return f"{self.kind}({inner})"

