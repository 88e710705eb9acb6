"""A consensus algorithm is a row over one round skeleton — and behaves exactly as before.

Figures 8 and 9, their two extreme-case baselines, the E7 ablation and the
``AAS[AΩ, AΣ]`` instance are six rows of ``repro.consensus.FAMILY`` (leader
rule, quorum rule, coordination wait on/off).  These tests pin both halves of
that contract:

* every row, and one KV run per quorum family, reproduces the event digest,
  round count and broadcast count recorded on the commit before the rows
  replaced the six hand-written classes (9638518) — the only net under
  ``aomega_asigma``, which no experiment dispatches;
* every row, built through the registry at an admissible membership, satisfies
  validity / agreement / termination, queries exactly the detectors its rules
  declare, and sends the payload shape its quorum rule owns;
* the paper's extreme-case claim holds for the two matchers: with every
  identifier ``⊥``, the HΣ matcher on ``(x, ⊥^k)`` selects a quorum exactly
  when the AΣ matcher on ``(x, k)`` does.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.consensus import FAMILY, ConsensusProgram
from repro.consensus.rules import (
    OMEGA,
    HSigmaQuorum,
    MajorityQuorum,
    find_quorum,
    match_count,
    match_multiset,
)
from repro.context import ProcessProgram
from repro.identity import ANONYMOUS_IDENTITY, IdentityMultiset
from repro.membership import unique_identities
from repro.runtime import (
    CONSENSUS,
    Engine,
    ScenarioValidationError,
    cascading,
    minority,
    register_consensus,
    scenario,
)
from repro.sim.message import Message


def _family_run(name, seed):
    """A small admissible scenario for row ``name``: noisy leaders, crashes, late quorums."""
    entry = CONSENSUS.resolve(name)
    build = scenario(f"family-{name}")
    if entry.membership_constraint == "unique":
        build = build.processes(5).unique_ids()
    elif entry.membership_constraint == "anonymous":
        build = build.processes(5).anonymous()
    else:
        build = build.homonyms([3, 2])
    leader, *quorum = entry.requires_detectors
    build = build.detectors(leader, stabilization=40.0, noise_period=0.5)
    if quorum:
        build = build.detectors(*quorum, stabilization=20.0)
    crashes = (
        minority(at=3.0, count=2)
        if entry.needs_majority
        else cascading(3, first_at=2.0, interval=5.0)
    )
    return Engine().run(
        build.crashes(crashes).consensus(name).horizon(600.0).seed(seed).build()
    )


def _kv_run(name):
    return Engine().run(
        scenario(f"family-kv-{name}")
        .homonyms([2, 2, 1])
        .detectors(*CONSENSUS.resolve(name).requires_detectors, stabilization=10.0)
        .kv(consensus=name, clients=3, ops_per_client=3, think_time=1.0, key_space=4)
        .horizon(600.0)
        .seed(0)
        .build()
    )


# ----------------------------------------------------------------------
# (a) Pinned on 9638518, before the six classes became rows
# ----------------------------------------------------------------------
#: (registry name, seed) → (digest, rounds, broadcasts), as 9638518 prints them.
_PINNED = {
    ("anonymous_aomega", 0): ("208ef20b23d9c097", 9, 130),
    ("anonymous_aomega", 1): ("faafa9dd54fe311d", 3, 57),
    ("aomega_asigma", 0): ("7a41fefb6e6b898c", 2, 38),
    ("aomega_asigma", 1): ("dbdcd1a7aa238f71", 2, 38),
    ("classical_omega", 0): ("7f1b64c21e65a892", 3, 55),
    ("classical_omega", 1): ("936d9a6eb7d444f7", 2, 42),
    ("homega_hsigma", 0): ("f468b528eea650e9", 4, 47),
    ("homega_hsigma", 1): ("090fcd2d1a441ca9", 2, 31),
    ("homega_majority", 0): ("f8c35d6f6a4fd1b1", 3, 54),
    ("homega_majority", 1): ("99b92a9f1dba6486", 3, 51),
    ("no_coordination", 0): ("fff6174a4fc03f12", 3, 57),
    ("no_coordination", 1): ("d3f9359a0e63ca4f", 4, 69),
}

#: registry name → (digest, ops completed, slots committed) of one KV run on 9638518.
_PINNED_KV = {
    "homega_majority": ("427de5a370d327f6", 9, 9),
    "homega_hsigma": ("b202057b14a9cfdf", 9, 9),
}


class TestRowsReproduceTheParentCommit:
    def test_every_registry_name_is_pinned(self):
        assert {name for name, _ in _PINNED} == set(CONSENSUS.names()) == set(FAMILY)

    @pytest.mark.parametrize("name, seed", sorted(_PINNED))
    def test_row(self, name, seed):
        record = _family_run(name, seed)
        metrics = record.metrics
        assert metrics["decided"] and metrics["safe"]
        assert (record.digest, metrics["rounds"], metrics["broadcasts"]) == _PINNED[name, seed]

    @pytest.mark.parametrize("name", sorted(_PINNED_KV))
    def test_kv_slots_run_without_trace_records(self, name):
        record = _kv_run(name)
        metrics = record.metrics
        assert metrics["linearizable"] is True
        assert (record.digest, metrics["ops_completed"], metrics["slots_committed"]) == (
            _PINNED_KV[name]
        )


# ----------------------------------------------------------------------
# (b) Every row does what its rules declare
# ----------------------------------------------------------------------
class _Recording:
    """A context proxy noting which detectors are queried and what each kind carries."""

    def __init__(self, ctx, queried, payloads):
        self._ctx, self._queried, self._payloads = ctx, queried, payloads

    def detector(self, name):
        self._queried.add(name)
        return self._ctx.detector(name)

    def broadcast(self, kind, **fields):
        self._payloads.setdefault(kind, set()).add(tuple(fields))
        self._ctx.broadcast(kind, **fields)

    def __getattr__(self, name):
        return getattr(self._ctx, name)


class _Recorded(ProcessProgram):
    def __init__(self, program, queried, payloads):
        self._program, self._queried, self._payloads = program, queried, payloads

    def setup(self, ctx):
        self._program.setup(_Recording(ctx, self._queried, self._payloads))


_SUB_ROUND_PAYLOAD = ("round", "identity", "sub_round", "labels", "estimate")


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_row_is_correct_and_queries_what_its_rules_declare(name, monkeypatch):
    row, entry = FAMILY[name], CONSENSUS.resolve(name)
    queried: set[str] = set()
    payloads: dict[str, set[tuple]] = {}
    # Same entry, but every program it builds runs behind the recording proxy.
    recorded = dataclasses.replace(
        entry,
        program=lambda proposal, **params: _Recorded(row(proposal, **params), queried, payloads),
    )
    monkeypatch.setitem(CONSENSUS._entries, name, recorded)
    record = _family_run(name, seed=0)
    assert record.metrics["decided"] and record.metrics["safe"]  # termination; validity + agreement
    assert record.digest == _PINNED[name, 0][0]

    assert queried == set(entry.requires_detectors)
    phase = ("round", "estimate") if row.quorum_rule is MajorityQuorum else _SUB_ROUND_PAYLOAD
    assert payloads == {
        "COORD": {("round", "identity", "estimate")},
        "PH0": {("round", "estimate")},
        "PH1": {phase},
        "PH2": {phase},
        "DECIDE": {("value",)},
    }

    instance = entry.factory(unique_identities(5))("v")
    assert isinstance(instance, row) and instance.describe() == row.description
    assert instance.use_coordination_phase is row.use_coordination_phase


def test_a_plugin_row_registers_with_its_derived_requirements(monkeypatch):
    """A seventh row — Ω leaders over HΣ quorums — is a declaration plus one call."""
    monkeypatch.setattr(CONSENSUS, "_entries", dict(CONSENSUS._entries))  # undo the registration

    class OmegaHSigmaConsensus(ConsensusProgram):
        leader_rule, quorum_rule = OMEGA, HSigmaQuorum

    entry = register_consensus(
        "test_omega_hsigma", OmegaHSigmaConsensus, **OmegaHSigmaConsensus.requirements()
    )
    assert entry.requires_detectors == ("Omega", "HSigma")
    assert (entry.needs_majority, entry.membership_constraint) == (False, "unique")

    build = (
        scenario("plugin").processes(4).unique_ids().crashes(cascading(3, first_at=2.0))
        .consensus("test_omega_hsigma").horizon(600.0)
    )
    with pytest.raises(ScenarioValidationError, match="HSigma is not attached"):
        build.detectors("Omega", stabilization=10.0).build()
    metrics = Engine().run(build.detectors("HSigma", stabilization=10.0).build()).metrics
    assert metrics["decided"] and metrics["safe"]


# ----------------------------------------------------------------------
# (c) The anonymous matcher is the homonymous one with every identifier ⊥
# ----------------------------------------------------------------------
_anonymous_messages = st.lists(
    st.builds(
        lambda sub_round, labels, estimate: Message(
            "PH1",
            {
                "round": 1,
                "identity": ANONYMOUS_IDENTITY,
                "sub_round": sub_round,
                "labels": tuple(labels),
                "estimate": estimate,
            },
        ),
        st.integers(1, 3),
        st.sets(st.sampled_from(["x", "y", "z"])),
        st.integers(0, 2),
    ),
    max_size=12,
)


@given(received=_anonymous_messages, label=st.sampled_from(["x", "y", "z"]), k=st.integers(0, 6))
def test_hsigma_matcher_on_bottom_multiset_is_the_asigma_matcher(received, label, k):
    by_multiset = find_quorum(
        received, {(label, IdentityMultiset([ANONYMOUS_IDENTITY] * k))}, match_multiset
    )
    by_count = find_quorum(received, {(label, k)}, match_count)
    assert by_multiset == by_count
    if by_count is not None:
        assert len(by_count) == k
        assert len({message["sub_round"] for message in by_count}) == 1
        assert all(label in message["labels"] for message in by_count)
