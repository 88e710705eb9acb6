"""Fault plans for chaos campaigns: every injection from one seed.

:meth:`FaultPlan.from_seed` is the single source of randomness for a
campaign.  Each injection category draws from the campaign RNG
*unconditionally and in a fixed order* — even categories that end up disabled
consume their draws — so the plan for seed *s* never depends on which
categories a caller toggles elsewhere, and a bug report that says "seed 41"
fully determines what was injected where.

The plan deliberately reuses the repo's existing deterministic fault hooks
instead of inventing parallel ones:

* worker kill/stall → the coordinator's ``chaos_kill_worker_after`` /
  ``chaos_stall_worker_after`` (SIGKILL / SIGSTOP after N results);
* coordinator death → ``crash_after_chunks`` (:class:`SimulatedCrash`);
* torn/foreign journal lines → direct mutilation of the shard files between
  crash and resume (:func:`mutilate_journal`);
* cache corruption → direct mutilation of ``RunCache`` entries
  (:func:`corrupt_cache_entries`);
* lossy links → ``backend_params["link"]`` on a real-backend run
  (:class:`~repro.transport.node.ShapedLink`), with the campaign seed folded
  into each link's RNG stream.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Injection",
    "FaultPlan",
    "mutilate_journal",
    "corrupt_cache_entries",
]


@dataclass(frozen=True)
class Injection:
    """One planned injection: what, and the parameters that aim it."""

    kind: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}


@dataclass(frozen=True)
class FaultPlan:
    """Every injection of one campaign, fully determined by ``seed``."""

    seed: int
    kill_worker_after: int | None
    stall_worker_after: int | None
    crash_after_chunks: int | None
    torn_journal: bool
    foreign_line: bool
    corrupt_cache_entries: int
    link: dict
    transport_fault: str  # "kill" or "suspend"

    @classmethod
    def from_seed(cls, seed: int) -> "FaultPlan":
        """Derive the campaign's full injection set from one seed.

        Every category draws exactly once, in this order, whether or not the
        draw enables it — replay identity must not depend on toggles.
        """
        rng = random.Random(f"chaos:{seed}")
        kill_after = rng.randint(1, 4)
        stall_after = rng.randint(2, 6)
        crash_after = rng.randint(1, 3)
        torn = rng.random() < 0.75
        foreign = rng.random() < 0.75
        corrupt = rng.randint(1, 3)
        loss = rng.choice([0.05, 0.1, 0.15])
        delay = rng.choice([0.0, 0.1])
        transport_fault = rng.choice(["kill", "suspend"])
        return cls(
            seed=seed,
            kill_worker_after=kill_after,
            stall_worker_after=stall_after,
            crash_after_chunks=crash_after,
            torn_journal=torn,
            foreign_line=foreign,
            corrupt_cache_entries=corrupt,
            link={"loss": loss, "delay": delay, "seed": seed},
            transport_fault=transport_fault,
        )

    def injections(self) -> list[Injection]:
        """The plan as a flat, printable injection list."""
        out = [
            Injection("kill_worker", {"after_results": self.kill_worker_after}),
            Injection("stall_worker", {"after_results": self.stall_worker_after}),
            Injection("coordinator_crash", {"after_chunks": self.crash_after_chunks}),
            Injection(
                "corrupt_cache", {"entries": self.corrupt_cache_entries}
            ),
            Injection("shaped_link", dict(self.link)),
            Injection("transport_fault", {"action": self.transport_fault}),
        ]
        if self.torn_journal:
            out.append(Injection("torn_journal", {}))
        if self.foreign_line:
            out.append(Injection("foreign_journal_line", {}))
        return out

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "injections": [injection.to_dict() for injection in self.injections()],
        }


def mutilate_journal(
    shards_dir: Path, *, torn: bool, foreign: bool, rng: random.Random
) -> list[str]:
    """Damage shard journals the way a real crash (or a stray writer) would.

    ``torn``: truncate the largest shard mid-line *and* append an unfinished
    line — both shapes of a write cut short by SIGKILL.  ``foreign``:
    interleave complete-but-alien lines (not JSON / JSON of the wrong shape /
    a result whose key matches no plan item) into the same file.  Returns a
    description of what was done, for the campaign report.

    The fabric's journal loader must shrug all of this off: a journal line is
    either a complete, verifiable result or it does not exist.
    """
    applied: list[str] = []
    shards = sorted(shards_dir.glob("*.jsonl"), key=lambda p: p.stat().st_size)
    if not shards:
        return applied
    victim = shards[-1]  # the largest journal has the most to lose
    if torn:
        raw = victim.read_bytes()
        lines = raw.splitlines(keepends=True)
        if lines:
            last = lines[-1]
            cut = rng.randint(1, max(1, len(last) - 1))
            victim.write_bytes(b"".join(lines[:-1]) + last[:cut])
            applied.append(f"tore the last line of {victim.name} at byte {cut}")
    if foreign:
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write("this is not even JSON\n")
            handle.write(json.dumps({"index": 0, "unrelated": True}) + "\n")
            handle.write(
                json.dumps(
                    {
                        "index": 0,
                        "key": "row-0000000000000000",  # matches no plan item
                        "row": {},
                        "digests": [],
                        "source": "fresh",
                    }
                )
                + "\n"
            )
        applied.append(f"interleaved 3 foreign lines into {victim.name}")
    if torn:
        # A torn *trailing* write can also land after valid lines written by
        # the resumed run — leave an unterminated fragment at the very end.
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write('{"index": 1, "key": "row-')  # no newline, cut short
        applied.append(f"appended an unterminated fragment to {victim.name}")
    return applied


def corrupt_cache_entries(
    cache_root: Path, count: int, rng: random.Random
) -> list[str]:
    """Overwrite ``count`` cache entries with garbage; return their names.

    The cache contract is corrupt-entry == miss: the run recomputes the item
    and rewrites the entry, with byte-identical final output.
    """
    entries = sorted(cache_root.glob("*.json"))
    if not entries:
        return []
    victims = rng.sample(entries, min(count, len(entries)))
    for victim in victims:
        victim.write_bytes(b'{"schema": "run-cache/2", "payload": garbage')
    return [victim.name for victim in victims]
