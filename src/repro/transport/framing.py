"""Length-prefixed JSON framing for the TCP transport.

Every frame on the wire is a 4-byte big-endian payload length followed by the
UTF-8 JSON encoding of one object.  TCP is a byte stream — without the prefix
two broadcasts sent back-to-back would arrive glued together (or a large one
split) and ``json.loads`` on a read chunk would be a correctness lottery.

The functions are deliberately tiny and synchronous-friendly: ``encode_frame``
returns bytes, ``decode_frames`` incrementally consumes a buffer (usable in
tests without sockets), and ``read_frame`` is the asyncio reader used by
nodes and the orchestrator.  The module imports no ``asyncio``: the
synchronous codec is all a simulator process needs, and ``read_frame`` only
ever runs inside an event loop that has already loaded it.
"""

from __future__ import annotations

import json
import struct
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import asyncio

__all__ = ["MAX_FRAME_BYTES", "encode_frame", "decode_frames", "read_frame", "FramingError"]

_LENGTH = struct.Struct(">I")

#: Upper bound on one frame's payload; a peer announcing more is corrupt
#: (or hostile) and the connection is dropped instead of buffering gigabytes.
MAX_FRAME_BYTES = 1 << 20


class FramingError(ValueError):
    """A frame violated the wire format (oversized or truncated length)."""


def encode_frame(payload: Any) -> bytes:
    """Serialize one JSON-encodable object into a length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FramingError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(body)) + body


def _announced_length(header: bytes | bytearray) -> int:
    """The payload length a frame header announces, refusing oversized ones."""
    (length,) = _LENGTH.unpack_from(header)
    if length > MAX_FRAME_BYTES:
        raise FramingError(f"announced frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return length


def decode_frames(buffer: bytearray) -> list[Any]:
    """Consume every complete frame at the front of ``buffer`` (in place).

    Returns the decoded objects; any trailing partial frame is left in the
    buffer for the next read.
    """
    frames: list[Any] = []
    while True:
        if len(buffer) < _LENGTH.size:
            return frames
        end = _LENGTH.size + _announced_length(buffer)
        if len(buffer) < end:
            return frames
        body = bytes(buffer[_LENGTH.size : end])
        del buffer[:end]
        frames.append(json.loads(body.decode("utf-8")))


async def read_frame(reader: asyncio.StreamReader) -> Any | None:
    """Read exactly one frame, or ``None`` on a clean EOF between frames."""
    from asyncio import IncompleteReadError

    try:
        header = await reader.readexactly(_LENGTH.size)
    except IncompleteReadError as error:
        if not error.partial:
            return None
        raise FramingError("connection closed mid-frame") from error
    try:
        body = await reader.readexactly(_announced_length(header))
    except IncompleteReadError as error:
        raise FramingError("connection closed mid-frame") from error
    return json.loads(body.decode("utf-8"))
