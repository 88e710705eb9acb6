"""The replica program: a consensus-driven replicated log feeding a KV store.

Replication is slot-per-instance state-machine replication: slot ``k`` of the
log is decided by a fresh consensus instance shared by all replicas, built
from a pluggable factory (any of the paper's algorithms).  Each instance runs
inside a :class:`_SlotContext` — the process's context scoped to the slot:
it suffixes every message kind with ``#s{k}``, so the phase messages of
concurrent instances cannot cross-talk, sends the instance's broadcasts to
the replica group, and redirects ``decide`` into the replica's commit
callback (the real ``ctx.decide`` records only a process's *first*
decision, which would swallow every slot after the first).  A slot's
instance leaves with its decision: the slot context removes the instance's
handlers from the runtime, so the instance, its round buffers and the phase
messages they hold are freed, and a replica's memory is O(in-flight slots +
log) rather than O(slots ever run).

Announcements go to the replica group, answers to the identifier that
asked.  The replica group is Π, the set of processes the paper's consensus
algorithms broadcast to: slot traffic, ``KV_SYNC`` and a client's
``KV_REQUEST`` are multicast to the replica group, and clients never hear
the first two.  A ``KV_REPLY`` goes to the processes carrying the
request's :func:`~repro.workloads.kv.commands.requester`, and a
``KV_COMMIT`` to the processes carrying the ``identity`` of the ``KV_SYNC``
it answers — just as the paper's messages carry their sender's identifier.
Programs address a group or an identifier's holders and never name an
individual peer, so the homonymous model holds.

A replica proposes its oldest pending client command for the next slot,
waits for the slot to commit, applies the committed command to its local
:class:`~repro.workloads.kv.commands.ReplicatedKV` store in log order, and
sends the reply to the requester.  Because every request reaches every
replica, the replicas' pending queues agree up to message loss, and
consensus picks one proposal per slot.

The paper's algorithms do not retransmit, so a lossy link can starve a
replica of a slot's entire phase traffic.  The ``KV_SYNC`` anti-entropy task
bounds that: replicas periodically announce how far they have applied, and
any replica that is ahead re-sends the missing committed slots as
``KV_COMMIT`` messages, which lagging replicas can consume *without* having
started the slot's instance.  Losses during an undecided slot still stall
exactly as the paper's termination analysis (E9) predicts.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ...context import ProcessContext, ProcessProgram
from ...identity import Identity
from ...sim.message import Message
from .commands import ApplyResult, ReplicatedKV, decode_command, requester

__all__ = ["ReplicatedKVProgram"]

#: How many committed slots one KV_SYNC round re-sends at most.
_SYNC_BATCH = 8


class _SlotContext(ProcessContext):
    """A process's context scoped to one log slot, for its consensus instance.

    It shares the process's runtime and overrides only what it scopes: every
    send gains a ``#s{slot}`` suffix on its kind (instance isolation) and a
    broadcast reaches the replica group (the instance's Π), handlers listen
    for the suffixed kind, spawned task names gain a slot prefix
    (debuggability), per-instance trace records are namespaced, and
    ``decide`` feeds the replica's commit callback instead of the
    process-level decision slot.

    ``decide`` also retires the instance: it removes the handlers of every
    kind it registered, so nothing the runtime holds leads to the instance,
    and its buffers and buffered messages are freed with it.  A decision is
    final (``ConsensusProgram.decide``), so those handlers could only append
    to buffers no task reads again; a late copy is still delivered and
    counted, it just runs no handler.
    """

    __slots__ = ("_slot", "_replicas", "_decide_cb", "_kinds")

    def __init__(
        self,
        ctx: ProcessContext,
        slot: int,
        replicas: range,
        decide_cb: Callable[[int, Any], None],
    ) -> None:
        super().__init__(ctx._runtime)
        self._slot = slot
        self._replicas = replicas
        self._decide_cb = decide_cb
        self._kinds: list[str] = []

    def broadcast(self, kind: str, **fields: Any) -> None:
        self.multicast(kind, self._replicas, **fields)

    def multicast(self, kind: str, targets: Any, **fields: Any) -> None:
        self._runtime.multicast(Message(f"{kind}#s{self._slot}", fields), targets)

    def on(self, kind: str, handler: Callable[[Message], None]) -> None:
        kind = f"{kind}#s{self._slot}"
        self._kinds.append(kind)
        self._runtime.register_handler(kind, handler)

    def spawn(self, task: Any, *, name: str = "") -> None:
        self._runtime.spawn_task(task, name=f"s{self._slot}-{name or 'task'}")

    def record(self, key: str, value: Any) -> None:
        self._runtime.record(f"kv.s{self._slot}.{key}", value)

    def decide(self, value: Any) -> None:
        self._decide_cb(self._slot, value)
        self._runtime.remove_handlers(self._kinds)


class ReplicatedKVProgram(ProcessProgram):
    """One replica of the consensus-replicated KV service.

    ``consensus_factory`` builds one instance per log slot; build it with
    ``record_outputs=False`` so hundreds of slots do not each write per-round
    trace records.  ``replicas`` is the replica group's process indices, where
    announcements go; ``holders`` maps each identifier to the indices of the
    processes carrying it, where answers to that identifier go.
    """

    def __init__(
        self,
        *,
        consensus_factory: Callable[[Any], Any],
        replicas: range,
        holders: Mapping[Identity, tuple[int, ...]],
        read_mode: str = "log",
        sync_period: float = 10.0,
        max_slots: int = 4096,
    ) -> None:
        if read_mode not in ("log", "local"):
            raise ValueError(f"read_mode must be 'log' or 'local', got {read_mode!r}")
        self._factory = consensus_factory
        self._replicas = replicas
        self._holders = holders
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
        if self.read_mode == "local":
            _, op, key, _args = decode_command(command)
            if op == "GET":
                value, version = self.store.read(key)
                ctx.record("kv.local_read", (request_id, key, version))
                self._reply(ctx, request_id, ApplyResult("ok", value, version))
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
                instance.setup(_SlotContext(ctx, slot, self._replicas, self._commit))
                yield ctx.wait_until(lambda slot=slot: slot in self.log)
            self._apply(ctx, slot)

    def _commit(self, slot: int, value: str) -> None:
        # First commit wins; consensus agreement makes later ones identical.
        self.log.setdefault(slot, value)

    def _apply(self, ctx: ProcessContext, slot: int) -> None:
        command = self.log[slot]
        request_id, op, key, args = decode_command(command)
        self._pending.pop(request_id, None)
        result = self.store.apply_decoded(request_id, op, key, args)
        self.applied_slots += 1
        ctx.record("kv.commit", (slot, command))
        if result is not None:
            self._reply(ctx, request_id, result)

    def _reply(self, ctx: ProcessContext, request_id: str, result: ApplyResult) -> None:
        ctx.multicast(
            "KV_REPLY",
            self._holders[requester(request_id)],
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
            ctx.multicast(
                "KV_SYNC", self._replicas, applied=self.applied_slots, identity=ctx.identity
            )

    def _on_sync(self, ctx: ProcessContext, message: Message) -> None:
        theirs = message["applied"]
        if theirs >= self.applied_slots:
            return
        asker = self._holders[message["identity"]]
        for slot in range(theirs, min(self.applied_slots, theirs + _SYNC_BATCH)):
            if slot in self.log:
                ctx.multicast("KV_COMMIT", asker, slot=slot, value=self.log[slot])

    def describe(self) -> str:
        return f"ReplicatedKVProgram(read_mode={self.read_mode})"
