"""The replica program: a consensus-driven replicated log feeding a KV store.

Replication is slot-per-instance state-machine replication: slot ``k`` of the
log is decided by a fresh consensus instance shared by all replicas, built
from a pluggable factory (any of the paper's algorithms).  Each instance runs
inside a :class:`_SlotContext` — a thin proxy over the real process context
that suffixes every message kind with ``#s{k}``, so the phase messages of
concurrent instances cannot cross-talk, and that redirects ``decide`` into
the replica's commit callback (the real ``ctx.decide`` records only a
process's *first* decision, which would swallow every slot after the first).

A replica proposes its oldest pending client command for the next slot,
waits for the slot to commit, applies the committed command to its local
:class:`~repro.workloads.kv.commands.ReplicatedKV` store in log order, and
broadcasts the reply.  Because clients broadcast requests to everyone, the
replicas' pending queues agree up to message loss, and consensus picks one
proposal per slot.

The paper's algorithms do not retransmit, so a lossy link can starve a
replica of a slot's entire phase traffic.  The ``KV_SYNC`` anti-entropy task
bounds that: replicas periodically announce how far they have applied, and
any replica that is ahead re-broadcasts the missing committed slots as
``KV_COMMIT`` messages, which lagging replicas can consume *without* having
started the slot's instance.  Losses during an undecided slot still stall
exactly as the paper's termination analysis (E9) predicts.
"""

from __future__ import annotations

from typing import Any, Callable

from ...sim.message import Message
from ...sim.process import ProcessContext, ProcessProgram
from .commands import ReplicatedKV, decode_command

__all__ = ["ReplicatedKVProgram"]

#: How many committed slots one KV_SYNC round re-broadcasts at most.
_SYNC_BATCH = 8


class _SlotContext:
    """A per-slot proxy over :class:`ProcessContext` for consensus instances.

    Message kinds gain a ``#s{slot}`` suffix (instance isolation), spawned
    task names gain a slot prefix (debuggability), per-instance trace records
    are namespaced, and ``decide`` feeds the replica's commit callback instead
    of the process-level decision slot.
    """

    __slots__ = ("_ctx", "_slot", "_decide_cb")

    def __init__(
        self, ctx: ProcessContext, slot: int, decide_cb: Callable[[int, Any], None]
    ) -> None:
        self._ctx = ctx
        self._slot = slot
        self._decide_cb = decide_cb

    # -- scoped communication -------------------------------------------
    def broadcast(self, kind: str, **fields: Any) -> None:
        self._ctx.broadcast(f"{kind}#s{self._slot}", **fields)

    def on(self, kind: str, handler: Callable[[Message], None]) -> None:
        self._ctx.on(f"{kind}#s{self._slot}", handler)

    def spawn(self, task: Any, *, name: str = "") -> None:
        self._ctx.spawn(task, name=f"s{self._slot}-{name or 'task'}")

    # -- scoped trace output --------------------------------------------
    def record(self, key: str, value: Any) -> None:
        self._ctx.record(f"kv.s{self._slot}.{key}", value)

    def decide(self, value: Any) -> None:
        self._decide_cb(self._slot, value)

    # -- plain delegation -------------------------------------------------
    @property
    def identity(self):
        return self._ctx.identity

    @property
    def now(self):
        return self._ctx.now

    @property
    def random(self):
        return self._ctx.random

    def sleep(self, duration):
        return self._ctx.sleep(duration)

    def wait_until(self, predicate):
        return self._ctx.wait_until(predicate)

    def next_synchronous_step(self):
        return self._ctx.next_synchronous_step()

    def detector(self, name: str):
        return self._ctx.detector(name)

    def has_detector(self, name: str) -> bool:
        return self._ctx.has_detector(name)

    def attach_detector(self, name: str, view: Any) -> None:
        self._ctx.attach_detector(name, view)


class ReplicatedKVProgram(ProcessProgram):
    """One replica of the consensus-replicated KV service.

    ``consensus_factory`` builds one instance per log slot; build it with
    ``record_outputs=False`` so hundreds of slots do not each write per-round
    trace records.
    """

    def __init__(
        self,
        *,
        consensus_factory: Callable[[Any], Any],
        read_mode: str = "log",
        sync_period: float = 10.0,
        max_slots: int = 4096,
    ) -> None:
        if read_mode not in ("log", "local"):
            raise ValueError(f"read_mode must be 'log' or 'local', got {read_mode!r}")
        self._factory = consensus_factory
        self.read_mode = read_mode
        self.sync_period = sync_period
        self.max_slots = max_slots
        self.store = ReplicatedKV()
        self.log: dict[int, str] = {}
        self.applied_slots = 0
        self._pending: dict[str, str] = {}  # request_id -> command, FIFO

    def setup(self, ctx: ProcessContext) -> None:
        ctx.on("KV_REQUEST", lambda msg: self._on_request(ctx, msg))
        ctx.on("KV_SYNC", lambda msg: self._on_sync(ctx, msg))
        ctx.on("KV_COMMIT", lambda msg: self._commit(msg["slot"], msg["value"]))
        ctx.spawn(lambda: self._replication_loop(ctx), name="kv-replication")
        if self.sync_period > 0:
            ctx.spawn(lambda: self._sync_loop(ctx), name="kv-sync")

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------
    def _on_request(self, ctx: ProcessContext, message: Message) -> None:
        request_id, command = message["request_id"], message["command"]
        previous = self.store.result_for(request_id)
        if previous is not None:
            self._reply(ctx, request_id, previous)
            return
        _, op, key, _args = decode_command(command)
        if op == "GET" and self.read_mode == "local":
            value, version = self.store.read(key)
            ctx.record("kv.local_read", (request_id, key, version))
            ctx.broadcast(
                "KV_REPLY", request_id=request_id, status="ok", value=value, version=version
            )
            return
        self._pending.setdefault(request_id, command)

    # ------------------------------------------------------------------
    # Replication (Task "kv-replication")
    # ------------------------------------------------------------------
    def _replication_loop(self, ctx: ProcessContext):
        while self.applied_slots < self.max_slots:
            slot = self.applied_slots
            yield ctx.wait_until(
                lambda slot=slot: slot in self.log or bool(self._pending)
            )
            if slot not in self.log:
                proposal = next(iter(self._pending.values()))
                instance = self._factory(proposal)
                instance.setup(_SlotContext(ctx, slot, self._commit))
                yield ctx.wait_until(lambda slot=slot: slot in self.log)
            self._apply(ctx, slot)

    def _commit(self, slot: int, value: str) -> None:
        # First commit wins; consensus agreement makes later ones identical.
        self.log.setdefault(slot, value)

    def _apply(self, ctx: ProcessContext, slot: int) -> None:
        command = self.log[slot]
        request_id, _op, _key, _args = decode_command(command)
        self._pending.pop(request_id, None)
        result = self.store.apply(command)
        self.applied_slots += 1
        ctx.record("kv.commit", (slot, command))
        if result is not None:
            self._reply(ctx, request_id, result)

    def _reply(self, ctx: ProcessContext, request_id: str, result) -> None:
        ctx.broadcast(
            "KV_REPLY",
            request_id=request_id,
            status=result.status,
            value=result.value,
            version=result.version,
        )

    # ------------------------------------------------------------------
    # Anti-entropy (Task "kv-sync")
    # ------------------------------------------------------------------
    def _sync_loop(self, ctx: ProcessContext):
        while True:
            yield ctx.sleep(self.sync_period)
            ctx.broadcast("KV_SYNC", applied=self.applied_slots)

    def _on_sync(self, ctx: ProcessContext, message: Message) -> None:
        theirs = message["applied"]
        if theirs >= self.applied_slots:
            return
        for slot in range(theirs, min(self.applied_slots, theirs + _SYNC_BATCH)):
            if slot in self.log:
                ctx.broadcast("KV_COMMIT", slot=slot, value=self.log[slot])

    def describe(self) -> str:
        return f"ReplicatedKVProgram(read_mode={self.read_mode})"
