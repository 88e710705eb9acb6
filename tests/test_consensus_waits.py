"""A blocked consensus task re-checks only what arrived, with the same answers.

The round skeleton's waits are re-evaluated after every delivery to their
process, so Phases 1–2 keep their buffer in matched form
(:class:`repro.consensus.rules.QuorumAssembly`) and the coordination wait
collects its own identifier's ``COORD`` estimates as they arrive.  These tests
hold both to the from-scratch definitions they replaced:

* a model-based search interleaves arrivals, HΣ / AΣ pair changes, label
  changes and sub-round entries, and after every step compares the
  assembly's quorum and ``outdated`` with a search from scratch (kept here as
  the reference); three declared source mutants of the assembly must each be
  killed by that search under the loaded profile;
* three homonymous leaders coordinate while other identifiers' ``COORD``\\ s
  arrive between theirs and ``h_multiplicity`` moves mid-wait: the adopted
  estimate and the instant the wait ends are pinned.
"""

from __future__ import annotations

import __future__
import inspect

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from repro.consensus import HOmegaMajorityConsensus
from repro.consensus import rules
from repro.consensus.rules import QuorumAssembly, find_quorum, match_count, match_multiset
from repro.detectors import CLASSES
from repro.identity import IdentityMultiset, ProcessId
from repro.sim import AsynchronousTiming, Clock, EventQueue, RngStreams
from repro.sim.message import Message
from repro.sim.process import ProcessRuntime
from repro.sim.trace import RunTrace


# ----------------------------------------------------------------------
# The reference: Figure 9's search, from scratch on every question
# ----------------------------------------------------------------------
def _search_from_scratch(received, pairs, match):
    """Every pair in ``repr`` order, every sub-round ascending, a fresh filtered list."""
    sub_rounds = sorted({message["sub_round"] for message in received})
    for label, wanted in sorted(pairs, key=repr):
        for sub_round in sub_rounds:
            chosen = match(
                [
                    message
                    for message in received
                    if message["sub_round"] == sub_round and label in message["labels"]
                ],
                wanted,
            )
            if chosen is not None:
                return chosen
    return None


def _outdated_from_scratch(received, labels_now, announced, sub_round):
    return labels_now != announced or any(m["sub_round"] > sub_round for m in received)


_LABELS = st.sampled_from(["x", "y", "z"])
_IDENTITIES = ["a", "b", "c"]
_MESSAGES = st.lists(
    st.builds(
        lambda sub_round, labels, identity, estimate: Message(
            "PH1",
            {
                "round": 1,
                "identity": identity,
                "sub_round": sub_round,
                "labels": tuple(labels),
                "estimate": estimate,
            },
        ),
        st.integers(1, 4),
        st.sets(_LABELS),
        st.sampled_from(_IDENTITIES),
        st.integers(0, 2),
    ),
    min_size=1,
    max_size=3,
)
_HSIGMA_PAIRS = st.frozensets(
    st.tuples(_LABELS, st.lists(st.sampled_from(_IDENTITIES), max_size=3).map(IdentityMultiset)),
    max_size=3,
)
_ASIGMA_PAIRS = st.frozensets(st.tuples(_LABELS, st.integers(0, 4)), max_size=3)


class AssemblyAgainstModel(RuleBasedStateMachine):
    """One round's live buffer read by an HΣ and an AΣ assembly at once.

    Rules deliver messages (a random sub-round, label subset and identifier),
    replace either detector's pairs (or re-read equal pairs as a new object),
    change this process's labels, and enter the next sub-round.  After every
    step both assemblies must answer ``outdated`` and ``quorum`` — in that
    order, so filing on ``outdated`` must not hide grown cells from ``quorum``
    — exactly as the reference does, and ``find_quorum`` must agree too.
    """

    assembly = QuorumAssembly

    def __init__(self):
        super().__init__()
        self.received: list[Message] = []
        self.pairs = {"h": frozenset(), "a": frozenset()}
        self.assemblies = {
            "h": self.assembly(self.received, match_multiset),
            "a": self.assembly(self.received, match_count),
        }
        self.labels = frozenset({"x"})
        self.announced = self.labels
        self.sub_round = 1
        for assembly in self.assemblies.values():
            assert assembly.enter(self.labels) == 1

    @rule(messages=_MESSAGES)
    def arrive(self, messages):
        self.received.extend(messages)

    @rule(pairs=_HSIGMA_PAIRS)
    def hsigma_pairs_change(self, pairs):
        self.pairs["h"] = pairs

    @rule(pairs=_ASIGMA_PAIRS)
    def asigma_pairs_change(self, pairs):
        self.pairs["a"] = pairs

    @rule()
    def pairs_reread_as_new_objects(self):
        self.pairs = {name: frozenset(list(pairs)) for name, pairs in self.pairs.items()}

    @rule(labels=st.frozensets(_LABELS))
    def labels_change(self, labels):
        self.labels = labels

    @rule()
    def enter_next_sub_round(self):
        self.sub_round += 1
        self.announced = self.labels
        for assembly in self.assemblies.values():
            assert assembly.enter(self.labels) == self.sub_round

    @invariant()
    def answers_equal_the_search_from_scratch(self):
        expected_outdated = _outdated_from_scratch(
            self.received, self.labels, self.announced, self.sub_round
        )
        for name, match in (("h", match_multiset), ("a", match_count)):
            assembly, pairs = self.assemblies[name], self.pairs[name]
            expected = _search_from_scratch(self.received, pairs, match)
            assert assembly.outdated(self.labels) == expected_outdated
            assert assembly.quorum(pairs) == expected
            assert find_quorum(self.received, pairs, match) == expected


TestAssemblyAgainstModel = AssemblyAgainstModel.TestCase
TestAssemblyAgainstModel.settings = settings(
    max_examples=max(1, settings.default.max_examples // 2), stateful_step_count=20
)


# ----------------------------------------------------------------------
# Mutants the search must kill: one source edit of QuorumAssembly each
# ----------------------------------------------------------------------
_MUTANTS = {
    "memo ignores a change of pairs": ("if pairs != self._pairs:", "if self._pairs is None:"),
    "index files only a message's first label": (
        'for label in message["labels"]:',
        'for label in message["labels"][:1]:',
    ),
    "highest sub-round untracked": ("self.highest = sub_round", "pass"),
}


def _mutant(original: str, mutated: str) -> type:
    source = inspect.getsource(QuorumAssembly)
    assert source.count(original) == 1, f"the mutated line moved: {original!r}"
    namespace = dict(vars(rules))
    code = compile(
        source.replace(original, mutated),
        rules.__file__,
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    exec(code, namespace)
    return namespace["QuorumAssembly"]


@pytest.mark.parametrize("name", sorted(_MUTANTS))
def test_the_search_kills_the_mutant(name):
    machine = type("Mutant", (AssemblyAgainstModel,), {"assembly": _mutant(*_MUTANTS[name])})
    with pytest.raises(AssertionError):
        run_state_machine_as_test(
            machine,
            settings=settings(
                settings.default,
                stateful_step_count=20,
                derandomize=True,
                database=None,
                phases=[Phase.generate],
                report_multiple_bugs=False,
            ),
        )


def test_the_unmutated_source_round_trips():
    """The mutant builder itself: an edit that changes nothing yields a class the
    search accepts, so a killed mutant died of its edit, not of the rebuild."""
    line = _MUTANTS["highest sub-round untracked"][0]
    machine = type("Rebuilt", (AssemblyAgainstModel,), {"assembly": _mutant(line, line)})
    run_state_machine_as_test(
        machine,
        settings=settings(settings.default, max_examples=10, stateful_step_count=20, database=None),
    )


# ----------------------------------------------------------------------
# The coordination wait with three homonymous leaders
# ----------------------------------------------------------------------
def _coord(identity, estimate):
    return Message("COORD", {"round": 1, "identity": identity, "estimate": estimate})


def test_homonymous_leaders_adopt_the_least_own_estimate_when_all_have_spoken():
    """Leader ``L`` (one of three) waits for ``h_multiplicity`` ``COORD``\\ s of ``L``.

    Other identifiers' smaller estimates arrive between them and must not be
    adopted.  The multiplicity rises to 4 before the third ``L`` arrives, so
    that arrival (t=5) does not end the wait; it falls back to 3 at t=7, and
    the wait ends on that poke.  A fourth ``L`` delivered at the same instant
    before the task runs is part of what it adopts from.
    """
    clock, queue, sent = Clock(), EventQueue(), []
    leader = ["L", 3]
    runtime = ProcessRuntime(
        ProcessId(0),
        "L",
        HOmegaMajorityConsensus("m", n=7),
        clock=clock,
        queue=queue,
        timing=AsynchronousTiming(),
        trace=RunTrace(),
        rng_streams=RngStreams(0),
        broadcast_fn=lambda sender, message: sent.append((clock.now, message)),
        multicast_fn=lambda sender, message, targets: sent.append((clock.now, message)),
    )
    runtime.attach_detector_view("HOmega", CLASSES["HOmega"].view(lambda: tuple(leader)))

    def multiplicity(value):
        leader[1] = value
        runtime.poke()

    script = [
        (1.0, runtime.deliver, _coord("L", "m")),
        (2.0, runtime.deliver, _coord("M", "a")),
        (2.5, multiplicity, 4),
        (3.0, runtime.deliver, _coord("L", "k")),
        (4.0, runtime.deliver, _coord("N", "b")),
        (5.0, runtime.deliver, _coord("L", "q")),
        (6.0, runtime.deliver, _coord("M", "c")),
        (7.0, multiplicity, 3),
        (7.0, runtime.deliver, _coord("L", "d")),
        (8.0, runtime.deliver, _coord("L", "a")),
    ]
    for at, action, argument in script:
        queue.schedule(at, action, args=(argument,), priority=1)
    runtime.start()
    while (entry := queue.pop_next(until=9.0)) is not None:
        clock.advance_to(entry[0])
        entry[4](*entry[5])

    assert [(at, message["estimate"]) for at, message in sent if message.kind == "COORD"] == [
        (0.0, "m")
    ]
    assert [(at, message["estimate"]) for at, message in sent if message.kind == "PH0"] == [
        (7.0, "d")
    ]
