"""The fabric worker: a stateless chunk executor on the end of a pipe.

Spawned by the coordinator as ``python -m repro.fabric worker [--cache DIR]``
with the protocol of :mod:`repro.fabric.protocol` on stdin/stdout.  The
worker holds no state between chunks and owns no files — results stream back
one frame per item and the *coordinator* journals them — so a worker can be
SIGKILLed at any instant and the only loss is its in-flight chunk, which the
coordinator requeues.  That statelessness is also what makes the worker
transport-agnostic: running it at the far end of ``ssh host python -m
repro.fabric worker`` changes nothing above the pipe.

stdout is reserved for protocol frames: the real stream is captured at
startup and ``sys.stdout`` is rebound to stderr, so a stray ``print`` in
experiment code degrades to log noise instead of corrupting the framing.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import BinaryIO

from ..runtime.cache import RunCache
from . import protocol
from .plan import WorkItem
from .work import execute_item

__all__ = ["main", "serve"]


def serve(
    inbound: BinaryIO, outbound: BinaryIO, *, cache: RunCache | None = None
) -> int:
    """The worker loop: read chunks, execute items, stream results back."""
    protocol.write_message(outbound, protocol.HELLO, pid=os.getpid())
    for message in protocol.iter_messages(inbound):
        if message["type"] == protocol.SHUTDOWN:
            return 0
        if message["type"] != protocol.CHUNK:
            protocol.write_message(
                outbound,
                protocol.ERROR,
                chunk=message.get("chunk"),
                error=f"unexpected message type {message['type']!r}",
            )
            return 1
        chunk_id = message["chunk"]
        try:
            for payload in message["items"]:
                result = execute_item(WorkItem.from_dict(payload), cache)
                protocol.write_message(
                    outbound, protocol.RESULT, chunk=chunk_id, result=result.to_dict()
                )
        except Exception as error:  # noqa: BLE001 — reported, then exit
            protocol.write_message(
                outbound,
                protocol.ERROR,
                chunk=chunk_id,
                error=f"{type(error).__name__}: {error}",
            )
            return 1
        protocol.write_message(outbound, protocol.CHUNK_DONE, chunk=chunk_id)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fabric worker",
        description="fabric worker (spawned by the coordinator; speaks the "
        "length-prefixed JSON protocol on stdin/stdout)",
    )
    parser.add_argument("--cache", metavar="DIR", help="shared run-cache directory")
    args = parser.parse_args(argv)
    inbound = sys.stdin.buffer
    outbound = sys.stdout.buffer
    sys.stdout = sys.stderr  # keep stray prints out of the frame stream
    return serve(inbound, outbound, cache=RunCache.coerce(args.cache))


if __name__ == "__main__":
    sys.exit(main())
