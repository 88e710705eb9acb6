"""The coordinator ↔ worker wire protocol: length-prefixed JSON messages.

The frame codec is :mod:`repro.transport.framing` itself (4-byte big-endian
length + UTF-8 JSON), driven here over *synchronous* binary streams — a
worker's stdin/stdout pipes today, an ssh channel or TCP socket tomorrow; the
protocol never assumes it is talking to a local subprocess.

Message types (every message is ``{"type": …, …}``):

* ``hello`` (worker → coordinator) — ``{pid}``: the worker imported the
  library and is ready for chunks;
* ``chunk`` (coordinator → worker) — ``{chunk, items}``: execute these work
  items (plan dicts), in order;
* ``result`` (worker → coordinator) — ``{chunk, result}``: one finished
  item (:class:`~repro.fabric.work.ItemResult` dict), streamed as it
  completes so the coordinator can journal incrementally;
* ``chunk_done`` (worker → coordinator) — ``{chunk}``: every item of the
  chunk was executed and its results sent;
* ``error`` (worker → coordinator) — ``{chunk, error}``: an item raised; the
  worker is poisoned and will exit (the coordinator requeues the chunk's
  remainder against its retry budget);
* ``shutdown`` (coordinator → worker) — exit cleanly.
"""

from __future__ import annotations

from typing import Any, BinaryIO, Iterator

from ..transport.framing import FramingError, decode_frames, encode_frame

__all__ = [
    "HELLO",
    "CHUNK",
    "RESULT",
    "CHUNK_DONE",
    "ERROR",
    "SHUTDOWN",
    "write_message",
    "iter_messages",
]

HELLO = "hello"
CHUNK = "chunk"
RESULT = "result"
CHUNK_DONE = "chunk_done"
ERROR = "error"
SHUTDOWN = "shutdown"

#: Most bytes taken from the stream per read; one read usually carries
#: several result frames.
_READ_BYTES = 1 << 16


def write_message(stream: BinaryIO, type: str, **fields: Any) -> None:
    """Frame and flush one message onto a binary stream."""
    stream.write(encode_frame({"type": type, **fields}))
    stream.flush()


def iter_messages(stream: BinaryIO) -> Iterator[dict]:
    """Yield the framed messages of a buffered binary stream until clean EOF.

    A stream that ends inside a frame (a worker SIGKILLed mid-write) raises
    :class:`~repro.transport.framing.FramingError`.
    """
    buffer = bytearray()
    while piece := stream.read1(_READ_BYTES):
        buffer += piece
        for payload in decode_frames(buffer):
            if not isinstance(payload, dict) or "type" not in payload:
                raise FramingError(f"malformed fabric message: {payload!r}")
            yield payload
    if buffer:
        raise FramingError("stream closed mid-frame")
