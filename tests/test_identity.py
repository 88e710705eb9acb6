"""Unit and property tests for identities and identity multisets."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.identity import ANONYMOUS_IDENTITY, IdentityMultiset, ProcessId


def bag(*items):
    return IdentityMultiset(items)


class TestProcessId:
    def test_ordering_follows_index(self):
        assert ProcessId(0) < ProcessId(1) < ProcessId(5)

    def test_equality_and_hash(self):
        assert ProcessId(3) == ProcessId(3)
        assert hash(ProcessId(3)) == hash(ProcessId(3))
        assert ProcessId(3) != ProcessId(4)

    def test_usable_as_dict_key(self):
        table = {ProcessId(0): "x", ProcessId(1): "y"}
        assert table[ProcessId(1)] == "y"


class TestIdentityMultisetBasics:
    def test_len_counts_duplicates(self):
        assert len(bag("A", "A", "B")) == 3

    def test_multiplicity(self):
        multiset = bag("A", "A", "B")
        assert multiset.multiplicity("A") == 2
        assert multiset.multiplicity("B") == 1
        assert multiset.multiplicity("C") == 0

    def test_contains(self):
        multiset = bag("A", "B")
        assert "A" in multiset
        assert "C" not in multiset

    def test_equality_is_order_insensitive(self):
        assert bag("A", "B", "A") == bag("A", "A", "B")
        assert bag("A") != bag("A", "A")

    def test_hashable_and_usable_as_label(self):
        labels = {bag("A", "A"): 1, bag("A", "B"): 2}
        assert labels[bag("A", "A")] == 1

    def test_repr_is_pinned_because_orderings_and_digests_depend_on_it(self):
        # ``find_quorum`` sorts pairs and the Ω / HΩ oracles pick leaders with
        # ``key=repr``, and ``stable_draw`` hashes ``repr(parts)``: this text is
        # part of the ALL/FULL determinism digests, not decoration.
        multiset = IdentityMultiset(["b", "a", "a"])
        assert repr(multiset) == "IdentityMultiset({'a', 'a', 'b'})"
        assert repr(multiset) is repr(multiset)  # built once per instance
        assert repr(IdentityMultiset()) == "IdentityMultiset({})"
        assert repr(IdentityMultiset([2, 10, "x"])) == "IdentityMultiset({10, 2, 'x'})"

    def test_pickle_rebuilds_without_the_cached_hash_and_text(self):
        multiset = IdentityMultiset(["b", "a", "a"])
        text, digest = repr(multiset), hash(multiset)
        rebuild, arguments = multiset.__reduce__()
        assert rebuild is IdentityMultiset and arguments == (("a", "a", "b"),)
        clone = pickle.loads(pickle.dumps(multiset))
        assert clone._repr is None and clone._hash is None
        assert clone == multiset and (repr(clone), hash(clone)) == (text, digest)

    def test_iteration_yields_each_copy(self):
        assert sorted(bag("B", "A", "A")) == ["A", "A", "B"]

    def test_support_is_the_set_of_distinct_identities(self):
        assert bag("A", "A", "B").support() == frozenset({"A", "B"})

    def test_empty(self):
        empty = IdentityMultiset()
        assert len(empty) == 0
        assert empty.is_empty()
        with pytest.raises(ValueError):
            empty.min_identity()

    def test_min_identity(self):
        assert bag("B", "A", "C").min_identity() == "A"

    def test_from_counts_rejects_non_positive(self):
        with pytest.raises(ValueError):
            IdentityMultiset.from_counts({"A": 0})
        with pytest.raises(ValueError):
            IdentityMultiset.from_counts({"A": -1})

    def test_uniform_builds_bottom_power(self):
        multiset = IdentityMultiset.uniform(ANONYMOUS_IDENTITY, 3)
        assert len(multiset) == 3
        assert multiset.multiplicity(ANONYMOUS_IDENTITY) == 3

    def test_uniform_zero_is_empty(self):
        assert IdentityMultiset.uniform("x", 0).is_empty()


class TestIdentityMultisetAlgebra:
    def test_subset_respects_multiplicity(self):
        assert bag("A").issubset(bag("A", "A"))
        assert bag("A", "A").issubset(bag("A", "A", "B"))
        assert not bag("A", "A").issubset(bag("A", "B"))

    def test_superset(self):
        assert bag("A", "A", "B").issuperset(bag("A", "B"))
        assert not bag("A").issuperset(bag("B"))

    def test_union_takes_max_multiplicity(self):
        assert bag("A", "A").union(bag("A", "B")) == bag("A", "A", "B")

    def test_sum_adds_multiplicities(self):
        assert bag("A").sum(bag("A", "B")) == bag("A", "A", "B")

    def test_intersection_takes_min_multiplicity(self):
        assert bag("A", "A", "B").intersection(bag("A", "C")) == bag("A")

    def test_add_returns_new_multiset(self):
        original = bag("A")
        extended = original.add("B", 2)
        assert extended == bag("A", "B", "B")
        assert original == bag("A")

    def test_add_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            bag("A").add("B", 0)

    def test_intersects(self):
        assert bag("A", "B").intersects(bag("B", "C"))
        assert not bag("A").intersects(bag("B"))
        assert not IdentityMultiset().intersects(bag("A"))


class TestSubMultisets:
    def test_paper_example_labels(self):
        # I(Π) = {A, A, B}; the labels containing identity B.
        universe = bag("A", "A", "B")
        labels = set(universe.sub_multisets_containing("B"))
        assert labels == {bag("B"), bag("A", "B"), bag("A", "A", "B")}

    def test_sub_multisets_count(self):
        # For {A, A, B} there are (2+1)*(1+1) - 1 = 5 nonempty sub-multisets.
        universe = bag("A", "A", "B")
        assert len(list(universe.sub_multisets())) == 5

    def test_sub_multisets_include_empty_when_requested(self):
        universe = bag("A")
        all_subs = list(universe.sub_multisets(nonempty=False))
        assert IdentityMultiset() in all_subs
        assert len(all_subs) == 2


identity_lists = st.lists(st.sampled_from(["A", "B", "C", "D"]), max_size=6)


class TestMultisetProperties:
    @given(identity_lists, identity_lists)
    def test_union_is_commutative(self, left, right):
        assert IdentityMultiset(left).union(IdentityMultiset(right)) == IdentityMultiset(
            right
        ).union(IdentityMultiset(left))

    @given(identity_lists, identity_lists)
    def test_intersection_is_subset_of_both(self, left, right):
        first, second = IdentityMultiset(left), IdentityMultiset(right)
        shared = first.intersection(second)
        assert shared.issubset(first)
        assert shared.issubset(second)

    @given(identity_lists, identity_lists)
    def test_sum_preserves_total_size(self, left, right):
        first, second = IdentityMultiset(left), IdentityMultiset(right)
        assert len(first.sum(second)) == len(first) + len(second)

    @given(identity_lists)
    def test_size_equals_sum_of_multiplicities(self, items):
        multiset = IdentityMultiset(items)
        assert len(multiset) == sum(
            multiset.multiplicity(identity) for identity in multiset.support()
        )

    @given(identity_lists)
    def test_every_sub_multiset_is_included(self, items):
        multiset = IdentityMultiset(items[:4])
        for sub in multiset.sub_multisets(nonempty=False):
            assert sub.issubset(multiset)
