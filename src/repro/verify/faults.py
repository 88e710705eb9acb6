"""What a seed breaks, and how: the faults the ``kill`` / ``stall`` / ``resume`` legs aim.

:meth:`ChaosPlan.from_seed` is the single source of randomness: every field
draws exactly once, in a fixed order, so seed *s* always aims the same
faults and a failing seed replays exactly.  :class:`ChaosFleet` fires the
worker and coordinator faults from inside the fleet a coordinator runs on
(``Coordinator(…, fleet=partial(ChaosFleet, kill_after=3))``), so the
coordinator under test carries no fault code; the damage a crash leaves
behind is done here too, between the crash and the resume.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

from ..fabric.coordinator import FabricError
from ..runtime.fleet import Fleet

__all__ = ["ChaosFleet", "ChaosPlan", "SimulatedCrash", "corrupt_cache_entries", "mutilate_journal"]


@dataclass(frozen=True)
class ChaosPlan:
    """What the ``kill`` / ``stall`` / ``resume`` legs break, fully determined by ``seed``."""

    seed: int
    kill_worker_after: int
    stall_worker_after: int
    crash_after_chunks: int
    torn_journal: bool
    foreign_line: bool
    corrupt_cache_entries: int

    @classmethod
    def from_seed(cls, seed: int) -> "ChaosPlan":
        """Every field draws exactly once, in this order, whatever it draws."""
        rng = random.Random(f"chaos:{seed}")
        return cls(
            seed,
            kill_worker_after=rng.randint(1, 4),
            stall_worker_after=rng.randint(2, 6),
            crash_after_chunks=rng.randint(1, 3),
            torn_journal=rng.random() < 0.75,
            foreign_line=rng.random() < 0.75,
            corrupt_cache_entries=rng.randint(1, 3),
        )

    def __str__(self) -> str:
        damage = {"torn": self.torn_journal, "foreign": self.foreign_line}
        journal = "+".join(name for name, on in damage.items() if on) or "intact"
        return (
            f"seed {self.seed}: SIGKILL after {self.kill_worker_after} results, "
            f"SIGSTOP after {self.stall_worker_after}, "
            f"crash after {self.crash_after_chunks} chunks, journal {journal}, "
            f"{self.corrupt_cache_entries} corrupt cache entries"
        )


class SimulatedCrash(FabricError):
    """Coordinator death rehearsed by a :class:`ChaosFleet`: journals flushed, no merge."""


class ChaosFleet(Fleet):
    """A worker fleet that breaks the run it serves, each fault at most once.

    ``kill_after`` / ``stall_after`` results in (counted once the caller has
    handled, i.e. journaled, their event), the next worker handed a chunk is
    SIGKILLed / SIGSTOPped before it can finish an item, so the chunk must be
    requeued; ``crash_after_chunks`` chunks done, with work left, it raises
    :class:`SimulatedCrash`."""

    def __init__(self, size: int, *, progress_timeout: float | None = None,
                 kill_after: float = math.inf, stall_after: float = math.inf,
                 crash_after_chunks: float = math.inf) -> None:
        super().__init__(size, progress_timeout=progress_timeout)
        self.after = {signal.SIGKILL: kill_after, signal.SIGSTOP: stall_after}
        self.crash_after = crash_after_chunks
        self.results = self.chunks = 0

    def run(self, fn, todo):
        for event in super().run(fn, todo):
            yield event
            self.results += len(event.results)
            self.chunks += event.done
            if event.done and self.chunks >= self.crash_after and (todo or self.pids(busy=True)):
                raise SimulatedCrash(f"simulated coordinator crash after {self.chunks} chunks")

    def _feed(self, worker, fn, todo, now) -> None:
        super()._feed(worker, fn, todo, now)
        for signum, after in self.after.items():
            if worker.chunk is not None and self.results >= after:
                self.after[signum] = math.inf
                print(f"verify: {signum.name} worker {worker.number} (chunk "
                      f"{worker.chunk[0].number}, {self.results} results in)", file=sys.stderr)
                os.kill(worker.process.pid, signum)


def mutilate_journal(
    shards_dir: Path, *, torn: bool, foreign: bool, rng: random.Random
) -> list[str]:
    """Damage the run journals the way a real crash (or a stray writer) would.

    ``torn``: truncate the largest journal mid-line *and* append an unfinished
    line — both shapes of a write cut short by SIGKILL.  ``foreign``:
    interleave complete-but-alien lines (not JSON / JSON of no line kind /
    a result whose key matches no plan item) into the same file.  Returns a
    description of what was done.  The fabric's journal loader must shrug all
    of this off: a journal line is either a complete, verifiable result or it
    does not exist.
    """
    applied: list[str] = []
    shards = sorted(shards_dir.glob("*.jsonl"), key=lambda p: p.stat().st_size)
    if not shards:
        return applied
    victim = shards[-1]  # the largest journal has the most to lose
    if torn:
        lines = victim.read_bytes().splitlines(keepends=True)
        if lines:
            cut = rng.randint(1, max(1, len(lines[-1]) - 1))
            victim.write_bytes(b"".join(lines[:-1]) + lines[-1][:cut])
            applied.append(f"tore the last line of {victim.name} at byte {cut}")
    if foreign:
        alien = {  # a well-formed result whose key matches no plan item
            "event": "result", "index": 0, "key": "row-0000000000000000", "row": {},
            "digests": [], "source": "fresh",
        }
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write("this is not even JSON\n")
            handle.write(json.dumps({"index": 0, "unrelated": True}) + "\n")
            handle.write(json.dumps(alien) + "\n")
        applied.append(f"interleaved 3 foreign lines into {victim.name}")
    if torn:
        # A torn *trailing* write can also land after complete lines — leave
        # an unterminated fragment at the very end.
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write('{"index": 1, "key": "row-')
        applied.append(f"appended an unterminated fragment to {victim.name}")
    return applied


def corrupt_cache_entries(cache_root: Path, count: int, rng: random.Random) -> list[str]:
    """Overwrite ``count`` cache entries with garbage; return their names.

    The cache contract is corrupt-entry == miss: the run recomputes the item
    and rewrites the entry, with byte-identical final output.
    """
    entries = sorted(cache_root.glob("*.json"))
    victims = rng.sample(entries, min(count, len(entries)))
    for victim in victims:
        victim.write_bytes(b'{"schema": "run-cache/4", "payload": garbage')
    return [victim.name for victim in victims]
