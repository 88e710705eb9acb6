"""Unit tests for the KV linearizability checker: the version-order witness
and the Wing & Gong-style search behind it."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ALL_EXPERIMENTS
from repro.identity import ProcessId
from repro.runtime import measure_run, scenario, simulate_spec
from repro.sim.trace import RunTrace
from repro.workloads.kv import (
    KVOperation,
    ReplicatedKV,
    check_history,
    check_kv_linearizable,
    history_from_trace,
)
from repro.workloads.kv import linearizability
from repro.workloads.kv.linearizability import ABSENT, _step


def op(
    rid,
    kind,
    key,
    invoke,
    response,
    *,
    args=(),
    status="ok",
    value=None,
    version=None,
):
    """A completed (or, with ``response=None``, pending) operation."""
    return KVOperation(
        request_id=rid,
        op=kind,
        key=key,
        args=tuple(args),
        invoke=invoke,
        response=response,
        status=None if response is None else status,
        value=None if response is None else value,
        version=version,
    )


class TestValidHistories:
    def test_empty_history(self):
        result = check_history([])
        assert result.ok and result.ops_checked == 0
        assert result.states_explored == 0

    def test_sequential_set_then_get(self):
        history = [
            op("a", "SET", "k", 0.0, 1.0, args=("v1",), value="v1"),
            op("b", "GET", "k", 2.0, 3.0, value="v1"),
        ]
        result = check_history(history)
        assert result.ok and result.states_explored == 2

    def test_concurrent_get_may_read_old_value(self):
        history = [
            op("a", "SET", "k", 0.0, 10.0, args=("v1",), value="v1"),
            op("b", "GET", "k", 1.0, 2.0, value=None),  # linearized before the SET
        ]
        result = check_history(history)
        assert result.ok and result.states_explored == 2

    def test_cas_chain(self):
        history = [
            op("a", "CAS", "k", 0.0, 1.0, args=(None, "v1"), value="v1"),
            op("b", "GET", "k", 2.0, 3.0, value="v1"),
            op("c", "CAS", "k", 4.0, 5.0, args=(None, "v2"), status="fail", value="v1"),
            op("d", "CAS", "k", 6.0, 7.0, args=("v1", "v2"), value="v2"),
        ]
        result = check_history(history)
        assert result.ok and result.states_explored == 4

    def test_delete_then_miss(self):
        history = [
            op("a", "SET", "k", 0.0, 1.0, args=("v1",), value="v1"),
            op("b", "DEL", "k", 2.0, 3.0),
            op("c", "GET", "k", 4.0, 5.0, value=None),
            op("d", "DEL", "k", 6.0, 7.0, status="miss"),
        ]
        result = check_history(history)
        assert result.ok and result.states_explored == 4

    def test_keys_are_checked_independently(self):
        history = [
            op("a", "SET", "x", 0.0, 1.0, args=("v1",), value="v1"),
            op("b", "SET", "y", 0.5, 1.5, args=("w1",), value="w1"),
            op("c", "GET", "x", 2.0, 3.0, value="v1"),
            op("d", "GET", "y", 2.0, 3.0, value="w1"),
        ]
        result = check_history(history)
        assert result.ok and result.ops_checked == 4
        assert result.states_explored == 4


class TestViolations:
    def test_stale_read_after_completed_set(self):
        history = [
            op("a", "SET", "k", 0.0, 1.0, args=("v1",), value="v1"),
            op("b", "GET", "k", 2.0, 3.0, value=None),  # must have seen v1
        ]
        result = check_history(history)
        assert not result.ok
        assert result.violations == ("k",)
        assert result.states_explored == 2

    def test_lost_update(self):
        history = [
            op("a", "SET", "k", 0.0, 1.0, args=("v1",), value="v1"),
            op("b", "SET", "k", 2.0, 3.0, args=("v2",), value="v2"),
            op("c", "GET", "k", 4.0, 5.0, value="v1"),  # v2 overwrote v1
        ]
        result = check_history(history)
        assert not result.ok and result.states_explored == 3

    def test_cas_ok_against_never_written_value(self):
        history = [
            op("a", "SET", "k", 0.0, 1.0, args=("v2",), value="v2"),
            op("b", "CAS", "k", 2.0, 3.0, args=("v0", "v1"), value="v1"),
        ]
        result = check_history(history)
        assert not result.ok and result.states_explored == 2

    def test_violation_in_one_key_does_not_blame_others(self):
        history = [
            op("a", "SET", "x", 0.0, 1.0, args=("v1",), value="v1"),
            op("b", "GET", "x", 2.0, 3.0, value=None),
            op("c", "SET", "y", 0.0, 1.0, args=("w1",), value="w1"),
            op("d", "GET", "y", 2.0, 3.0, value="w1"),
        ]
        result = check_history(history)
        assert result.violations == ("x",)
        assert result.states_explored == 4


class TestIncompleteOperations:
    def test_pending_set_may_have_taken_effect(self):
        history = [
            op("a", "SET", "k", 0.0, None, args=("v1",)),
            op("b", "GET", "k", 5.0, 6.0, value="v1"),
        ]
        result = check_history(history)
        assert result.ok and result.states_explored == 2

    def test_pending_set_may_never_take_effect(self):
        history = [
            op("a", "SET", "k", 0.0, None, args=("v1",)),
            op("b", "GET", "k", 5.0, 6.0, value=None),
        ]
        result = check_history(history)
        assert result.ok and result.states_explored == 1

    def test_pending_get_constrains_nothing(self):
        history = [
            op("a", "GET", "k", 0.0, None),
            op("b", "SET", "k", 1.0, 2.0, args=("v1",), value="v1"),
        ]
        result = check_history(history)
        assert result.ok
        assert result.states_explored == 1

    def test_pending_cas_with_false_expectation_cannot_take_effect(self):
        history = [
            op("a", "CAS", "k", 0.0, None, args=("v0", "v1")),  # k was never v0
            op("b", "GET", "k", 5.0, 6.0, value="v1"),
        ]
        result = check_history(history)
        assert not result.ok and result.states_explored == 2


class TestBudget:
    def test_budget_exhaustion_is_undecided_not_ok(self):
        # 14 mutually concurrent completed SETs: the search space is far
        # beyond a 5-state budget, and none of the orders can be completed
        # before the budget trips.
        history = [
            op(f"r{i}", "SET", "k", 0.0, 100.0, args=(f"v{i}",), value=f"v{i}")
            for i in range(14)
        ] + [op("g", "GET", "k", 200.0, 201.0, value="v0")]
        result = check_history(history, max_states_per_key=5)
        assert not result.ok
        assert result.undecided == ("k",)
        assert result.violations == ()
        assert result.states_explored == 6


class TestTraceAdapter:
    def test_history_pairs_op_and_done_records(self):
        trace = RunTrace()
        client = ProcessId(7)
        trace.record(client, "kv.op", ("c0:0", "SET", "k", ("v1",)), 1.0)
        trace.record(client, "kv.done", ("c0:0", "ok", "v1", 1), 4.0)
        trace.record(client, "kv.op", ("c0:1", "GET", "k", ()), 5.0)
        history = history_from_trace(trace)
        assert [operation.request_id for operation in history] == ["c0:0", "c0:1"]
        assert history[0].completed and history[0].response == 4.0
        assert not history[1].completed

    def test_check_kv_linearizable_on_trace(self):
        trace = RunTrace()
        client = ProcessId(7)
        trace.record(client, "kv.op", ("c0:0", "SET", "k", ("v1",)), 1.0)
        trace.record(client, "kv.done", ("c0:0", "ok", "v1", 1), 2.0)
        trace.record(client, "kv.op", ("c0:1", "GET", "k", ()), 3.0)
        trace.record(client, "kv.done", ("c0:1", "ok", None, 0), 4.0)  # stale!
        result = check_kv_linearizable(trace, pattern=None)
        assert not result.ok
        assert result.stabilization_time is None  # duck-types the CHECKS result
        assert result.states_explored == 2


# ----------------------------------------------------------------------
# The search's cost is pinned: a faster checker explores the same states
# ----------------------------------------------------------------------
def _check_key_by_scan(operations, max_states):
    """The search with the earliest remaining response found by a full scan
    over every operation per explored state (the reference definition)."""
    operations = [o for o in operations if o.completed or o.op != "GET"]
    if not operations:
        return "ok", 0
    count = len(operations)
    completed_mask = sum(1 << i for i, o in enumerate(operations) if o.completed)
    seen = set()
    stack = [(0, ABSENT)]
    while stack:
        if len(seen) > max_states:
            return "undecided", len(seen)
        done, state = stack.pop()
        if (done & completed_mask) == completed_mask:
            return "ok", len(seen)
        if (done, state) in seen:
            continue
        seen.add((done, state))
        earliest_response = min(
            (
                operations[i].response
                for i in range(count)
                if not done & (1 << i) and operations[i].completed
            ),
            default=None,
        )
        for i in range(count):
            bit = 1 << i
            if done & bit:
                continue
            operation = operations[i]
            if earliest_response is not None and operation.invoke > earliest_response:
                continue
            if not operation.completed:
                stack.append((done | bit, state))
            legal, new_state = _step(state, operation)
            if legal:
                stack.append((done | bit, new_state))
    return "violation", len(seen)


_VALUES = [ABSENT, "v0", "v1", "v2"]


def _draw_command(draw):
    kind = draw(st.sampled_from(["GET", "SET", "CAS", "DEL"]))
    args = {"SET": (draw(st.sampled_from(_VALUES[1:])),), "GET": (), "DEL": ()}.get(
        kind, (draw(st.sampled_from(_VALUES)), draw(st.sampled_from(_VALUES[1:])))
    )
    return kind, args


@st.composite
def _random_histories(draw):
    """Arbitrary answers: overlapping intervals, pending ops, stale reads, and
    versions that are all missing or all drawn at random."""
    versioned = draw(st.booleans())
    history = []
    for index in range(draw(st.integers(min_value=0, max_value=8))):
        kind, args = _draw_command(draw)
        invoke = float(draw(st.integers(min_value=0, max_value=12)))
        pending = draw(st.integers(min_value=0, max_value=5)) == 0
        response = None if pending else invoke + draw(st.integers(min_value=0, max_value=6))
        history.append(
            op(
                f"r{index}",
                kind,
                "k",
                invoke,
                response,
                args=args,
                status=draw(st.sampled_from(["ok", "fail", "miss"])),
                value=draw(st.sampled_from(_VALUES)),
                version=draw(st.integers(min_value=0, max_value=4)) if versioned else None,
            )
        )
    return history


@st.composite
def _legal_histories(draw, clean=False):
    """A legal sequential run of the store, answered with its true versions.

    Operation ``i`` takes effect at instant ``3 i``, is invoked up to four
    units before and answered up to four after, so intervals overlap.  A
    pending mutation may still take effect.  Unless ``clean``, one answer's
    version may then be bumped or dropped, or its value replaced.
    """
    store = ReplicatedKV()
    history = []
    for index in range(draw(st.integers(min_value=0, max_value=8))):
        kind, args = _draw_command(draw)
        point = 3.0 * index
        invoke = point - draw(st.integers(min_value=0, max_value=4))
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            if not clean and draw(st.booleans()):
                store.apply_decoded(f"r{index}", kind, "k", args)
            history.append(op(f"r{index}", kind, "k", invoke, None, args=args))
            continue
        result = store.apply_decoded(f"r{index}", kind, "k", args)
        response = point + draw(st.integers(min_value=0, max_value=4))
        history.append(
            op(
                f"r{index}",
                kind,
                "k",
                invoke,
                response,
                args=args,
                status=result.status,
                value=result.value,
                version=result.version,
            )
        )
    answered = [index for index, operation in enumerate(history) if operation.completed]
    if not clean and answered:
        index = draw(st.sampled_from(answered))
        mutated = history[index]
        history[index] = draw(
            st.sampled_from(
                [
                    mutated,
                    replace(mutated, version=mutated.version + 1),
                    replace(mutated, version=max(0, mutated.version - 1)),
                    replace(mutated, version=None),
                    replace(mutated, value=draw(st.sampled_from(_VALUES))),
                ]
            )
        )
    return history


@st.composite
def _histories(draw):
    """Single-key histories: arbitrary answers, or a legal run's (perturbed)."""
    history = draw(st.one_of(_random_histories(), _legal_histories()))
    history.sort(key=lambda operation: (operation.invoke, operation.request_id))
    return history


class TestSearchCost:
    @settings(max_examples=300, deadline=None)
    @given(history=_histories(), budget=st.sampled_from([3, 40, 200_000]))
    def test_verdict_and_states_equal_the_full_scan(self, history, budget):
        assert linearizability._check_key(history, budget) == _check_key_by_scan(
            history, budget
        )

    def test_an_e10_quick_cell_explores_a_pinned_number_of_states(self):
        # E10 quick, seed 0, cell 6: 4 clients x 4 ops, uniform keys, no fault.
        (_, fn, configs), = ALL_EXPERIMENTS["E10"].work(True, 0)
        config = list(configs)[6]
        assert (config["clients"], config["skew"], config["fault"]) == (4, "uniform", "none")
        history = history_from_trace(simulate_spec(fn(dict(config))).trace)
        verdict = check_history(history)
        # Every key is certified by its version order; the search, run on
        # the same history, still explores its pinned number of states.
        by_key = {}
        for operation in history:
            by_key.setdefault(operation.key, []).append(operation)
        assert (verdict.ok, verdict.ops_checked, verdict.states_explored) == (True, 16, 0)
        assert verdict.witnessed == len(by_key)
        searched = [linearizability._check_key(ops, 200_000) for ops in by_key.values()]
        assert {outcome for outcome, _ in searched} == {"ok"}
        assert sum(states for _, states in searched) == 28


# ----------------------------------------------------------------------
# The version-order witness: it only ever certifies what the search accepts
# ----------------------------------------------------------------------
class TestVersionWitness:
    @settings(max_examples=300, deadline=None)
    @given(history=_histories(), budget=st.sampled_from([3, 40, 200_000]))
    def test_check_history_agrees_with_the_search(self, history, budget):
        verdict, states = linearizability._check_key(history, budget)
        result = check_history(history, max_states_per_key=budget)
        if result.witnessed:
            # Certified with no search: the search, given room, agrees.
            assert result.ok and result.states_explored == 0
            assert verdict != "violation"
        else:
            assert result.states_explored == states
            assert (result.ok, bool(result.violations), bool(result.undecided)) == (
                verdict == "ok",
                verdict == "violation",
                verdict == "undecided",
            )

    @settings(max_examples=200, deadline=None)
    @given(history=_legal_histories(clean=True))
    def test_a_legal_run_answered_with_its_true_versions_is_witnessed(self, history):
        result = check_history(history)
        assert result.ok and result.states_explored == 0
        assert result.witnessed == (1 if history else 0)

    def test_a_pending_mutation_that_took_effect_sends_the_key_to_the_search(self):
        history = [
            op("a", "SET", "k", 0.0, None, args=("v1",)),
            op("b", "GET", "k", 5.0, 6.0, value="v1", version=1),
        ]
        result = check_history(history)
        assert result.ok and result.witnessed == 0 and result.states_explored == 2

    def test_the_cliff_cell_certifies_by_version_order(self):
        # 24 zipf clients x 25 ops at seed 4: the search alone took seconds
        # here and ran out of budget on a key (``lin_undecided`` 1).
        spec = (
            scenario("kv-cliff")
            .homonyms([2, 2, 1])
            .detectors("HOmega", stabilization=10.0)
            .kv(clients=24, ops_per_client=25, skew="zipf", think_time=1.0, key_space=6)
            .horizon(6000.0)
            .seed(4)
            .build()
        )
        simulation = simulate_spec(spec)
        metrics = measure_run(spec, simulation).metrics
        assert metrics["linearizable"] and metrics["lin_ops_checked"] == 600
        assert metrics["lin_undecided"] == 0
        assert check_kv_linearizable(simulation.trace).witnessed == 6
