"""An offline linearizability checker for KV run traces.

Each key is checked independently: the store has no cross-key operations, so
the history is linearizable iff every per-key sub-history is, i.e. iff some
legal sequential order of the key's operations respects real-time precedence
(an operation whose response preceded another's invocation comes first).

**The witness first.**  The service claims an order itself: every answer
carries the key's version, and a successful SET / CAS / DEL creates the next
one.  So before searching, a key's completed operations are sorted by
``(version, creator-of-that-version first, response)``, replayed through the
sequential store from ``ABSENT``, and checked for real time in one pass (no
operation may answer before an earlier-ordered one was invoked).  If the
replay is legal and real time holds, that order *is* a linearization — by
definition — and the key is certified with no search.  Versions are only a
hint and never trusted: a missing, stale or lying version makes the replay or
the real-time pass fail, and the key goes to the search.  Incomplete
mutations are left out of the witness, which is the search's own
"never took effect" branch.

**The search second.**  A key the witness cannot settle gets a Wing &
Gong-style search (Wing & Gong, "Testing and verifying concurrent objects",
JPDC 1993).  It is exponential in the worst case but small in practice because
the service serializes writes through consensus; memoizing on the
``(done-operations bitmask, store state)`` pair collapses the usual blow-up.
A per-key state budget turns pathological instances into an explicit
``undecided`` verdict instead of an endless search — and ``undecided`` fails
the ``ok`` flag, so a certification gate stays conservative.  Because the
witness only ever says ``ok`` for an order the search would also accept,
every violation still comes from the search, and ``undecided`` can only
happen on a key whose witness failed.

Incomplete operations (invoked, never answered — the client crashed or the
run hit its horizon) are handled the standard way: a mutating operation with
no response *may* have taken effect at any point after its invocation, or
never; an unanswered read constrains nothing and is dropped.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from ...sim.trace import RunTrace

__all__ = [
    "KVOperation",
    "KVLinearizabilityResult",
    "check_history",
    "check_kv_linearizable",
    "history_from_trace",
]

#: Sentinel store state for an absent key (clients never write ``None``).
ABSENT = None


@dataclass(frozen=True, slots=True)
class KVOperation:
    """One client operation with its observed invoke/response interval."""

    request_id: str
    op: str
    key: str
    args: tuple[Any, ...]
    invoke: float
    response: float | None
    status: str | None
    value: Any
    version: int | None

    @property
    def completed(self) -> bool:
        return self.response is not None


@dataclass(frozen=True, slots=True)
class KVLinearizabilityResult:
    """The verdict; duck-types the ``CHECKS`` result protocol (``ok`` + time).

    ``witnessed`` counts the keys certified by their version order alone;
    ``states_explored`` counts the states the search explored on the others.
    """

    ok: bool
    violations: tuple[str, ...]
    undecided: tuple[str, ...]
    ops_checked: int
    states_explored: int
    witnessed: int = 0
    stabilization_time: float | None = None


def history_from_trace(trace: RunTrace) -> list[KVOperation]:
    """Pair ``kv.op`` invocations with ``kv.done`` responses across all clients."""
    invokes: dict[str, tuple[float, str, str, tuple[Any, ...]]] = {}
    responses: dict[str, tuple[float, str, Any, int | None]] = {}
    for process in trace.processes_with_records():
        for time, (request_id, op, key, args) in trace.records_of(process, "kv.op"):
            invokes[request_id] = (time, op, key, tuple(args))
        for time, (request_id, status, value, version) in trace.records_of(process, "kv.done"):
            if request_id not in responses:
                responses[request_id] = (time, status, value, version)
    history = []
    for request_id, (invoke, op, key, args) in invokes.items():
        response = responses.get(request_id)
        history.append(
            KVOperation(
                request_id=request_id,
                op=op,
                key=key,
                args=args,
                invoke=invoke,
                response=response[0] if response else None,
                status=response[1] if response else None,
                value=response[2] if response else None,
                version=response[3] if response else None,
            )
        )
    history.sort(key=lambda operation: (operation.invoke, operation.request_id))
    return history


def _step(state: Any, operation: KVOperation) -> tuple[bool, Any]:
    """Apply ``operation`` to the per-key ``state``; ``(legal, new_state)``.

    For completed operations the recorded status/value must match what the
    state machine would produce; for incomplete mutations the effect is taken
    unconditionally (the caller also explores the never-took-effect branch).
    """
    op, args = operation.op, operation.args
    if op == "GET":
        if operation.completed and operation.value != state:
            return False, state
        return True, state
    if op == "SET":
        return True, args[0]
    if op == "CAS":
        expected, new = args
        if not operation.completed:
            # An unanswered CAS only takes effect if its expectation held.
            if state != expected:
                return False, state
            return True, new
        if operation.status == "ok":
            if state != expected:
                return False, state
            return True, new
        return (state != expected and operation.value == state), state
    if op == "DEL":
        if not operation.completed:
            return True, ABSENT
        if operation.status == "ok":
            if state is ABSENT:
                return False, state
            return True, ABSENT
        return state is ABSENT, state
    raise ValueError(f"unknown KV operation: {op!r}")


def _version_order(operation: KVOperation) -> tuple[int, int, float]:
    """The service's claimed position: a version's creator, then its readers."""
    # Every operation but GET creates the next version when it answers "ok".
    creates = operation.op != "GET" and operation.status == "ok"
    return operation.version, 0 if creates else 1, operation.response


def _witnessed(operations: list[KVOperation]) -> bool:
    """Whether the key's version order is itself a linearization.

    ``False`` means only "not by this order": the caller searches.
    """
    completed = [operation for operation in operations if operation.completed]
    if any(operation.version is None for operation in completed):
        return False
    completed.sort(key=_version_order)
    state, latest_invoke = ABSENT, float("-inf")
    for operation in completed:
        # Real time: nothing ordered earlier may have been invoked after
        # this operation had already answered.
        latest_invoke = max(latest_invoke, operation.invoke)
        if operation.response < latest_invoke:
            return False
        legal, state = _step(state, operation)
        if not legal:
            return False
    return True


def _check_key(
    operations: list[KVOperation], max_states: int
) -> tuple[str, int]:
    """Search one key's sub-history; returns ``(verdict, states_explored)``.

    ``verdict`` is ``"ok"``, ``"violation"``, or ``"undecided"`` (budget hit).
    """
    operations = [
        operation
        for operation in operations
        if operation.completed or operation.op != "GET"
    ]
    if not operations:
        return "ok", 0
    indexed = [(1 << index, operation) for index, operation in enumerate(operations)]
    completed_mask = 0
    for bit, operation in indexed:
        if operation.completed:
            completed_mask |= bit
    # Completed operations by response time: the first one not yet done is the
    # earliest response among the remaining ones.
    by_response = sorted(
        ((bit, operation.response) for bit, operation in indexed if operation.completed),
        key=lambda pair: pair[1],
    )
    seen: set[tuple[int, Any]] = set()
    stack: list[tuple[int, Any]] = [(0, ABSENT)]
    while stack:
        if len(seen) > max_states:
            return "undecided", len(seen)
        done, state = stack.pop()
        if (done & completed_mask) == completed_mask:
            return "ok", len(seen)
        if (done, state) in seen:
            continue
        seen.add((done, state))
        # An operation may be linearized next only if its invocation does not
        # follow the response of some other remaining *completed* operation.
        # At least one remains: once every completed operation is done, the
        # search has already answered "ok".
        for bit, response in by_response:
            if not done & bit:
                earliest_response = response
                break
        for bit, operation in indexed:
            if done & bit or operation.invoke > earliest_response:
                continue
            if not operation.completed:
                # Branch 1: the lost mutation never takes effect.
                stack.append((done | bit, state))
            legal, new_state = _step(state, operation)
            if legal:
                stack.append((done | bit, new_state))
    return "violation", len(seen)


def check_history(
    history: list[KVOperation], *, max_states_per_key: int = 200_000
) -> KVLinearizabilityResult:
    """Check a full multi-key history key by key: the witness, else the search."""
    by_key: dict[str, list[KVOperation]] = defaultdict(list)
    for operation in history:
        by_key[operation.key].append(operation)
    violations: list[str] = []
    undecided: list[str] = []
    witnessed = 0
    states_total = 0
    for key in sorted(by_key):
        if _witnessed(by_key[key]):
            witnessed += 1
            continue
        verdict, states = _check_key(by_key[key], max_states_per_key)
        states_total += states
        if verdict == "violation":
            violations.append(key)
        elif verdict == "undecided":
            undecided.append(key)
    return KVLinearizabilityResult(
        ok=not violations and not undecided,
        violations=tuple(violations),
        undecided=tuple(undecided),
        ops_checked=len(history),
        states_explored=states_total,
        witnessed=witnessed,
    )


def check_kv_linearizable(trace: RunTrace, pattern: Any = None) -> KVLinearizabilityResult:
    """Registry-compatible adapter: certify the KV history of ``trace``."""
    del pattern  # real-time order comes from the trace, not the failure pattern
    return check_history(history_from_trace(trace))
