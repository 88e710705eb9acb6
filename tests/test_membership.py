"""Tests for memberships and homonymy pattern generators."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.identity import ANONYMOUS_IDENTITY, IdentityMultiset, ProcessId
from repro.membership import (
    Membership,
    anonymous_identities,
    grouped_identities,
    identities_from_multiplicities,
    random_identities,
    unique_identities,
)


class TestMembershipBasics:
    def test_paper_example(self, paper_example_membership):
        membership = paper_example_membership
        assert membership.size == 3
        assert membership.identity_of(ProcessId(0)) == "A"
        assert membership.identity_of(ProcessId(2)) == "B"
        assert membership.identity_multiset() == IdentityMultiset(["A", "A", "B"])

    def test_processes_with_identity(self, paper_example_membership):
        assert paper_example_membership.processes_with_identity("A") == (
            ProcessId(0),
            ProcessId(1),
        )
        assert paper_example_membership.processes_with_identity("missing") == ()

    def test_homonyms_of(self, paper_example_membership):
        assert paper_example_membership.homonyms_of(ProcessId(1)) == (
            ProcessId(0),
            ProcessId(1),
        )
        assert paper_example_membership.homonyms_of(ProcessId(2)) == (ProcessId(2),)

    def test_multiplicity(self, paper_example_membership):
        assert paper_example_membership.multiplicity("A") == 2
        assert paper_example_membership.multiplicity("B") == 1
        assert paper_example_membership.multiplicity("Z") == 0

    def test_identity_of_unknown_process_raises(self, paper_example_membership):
        with pytest.raises(ConfigurationError):
            paper_example_membership.identity_of(ProcessId(99))

    def test_empty_membership_rejected(self):
        with pytest.raises(ConfigurationError):
            Membership({})

    def test_identity_multiset_of_subset(self, paper_example_membership):
        subset = [ProcessId(0), ProcessId(2)]
        assert paper_example_membership.identity_multiset(subset) == IdentityMultiset(
            ["A", "B"]
        )


class TestMembershipCharacter:
    def test_unique(self):
        membership = unique_identities(4)
        assert membership.is_uniquely_identified
        assert not membership.is_anonymous
        assert membership.homonymy_degree == 1
        assert "unique" in membership.describe()

    def test_anonymous(self):
        membership = anonymous_identities(4)
        assert membership.is_anonymous
        assert not membership.is_uniquely_identified
        assert membership.homonymy_degree == 4
        assert membership.distinct_identities == frozenset({ANONYMOUS_IDENTITY})
        assert "anonymous" in membership.describe()

    def test_single_process_is_both_extremes(self):
        membership = unique_identities(1)
        assert membership.is_uniquely_identified
        assert membership.is_anonymous

    def test_grouped(self):
        membership = grouped_identities([3, 2, 1])
        assert membership.size == 6
        assert membership.homonymy_degree == 3
        assert len(membership.distinct_identities) == 3
        assert "homonymous" in membership.describe()


class TestGenerators:
    def test_unique_identities_are_distinct(self):
        membership = unique_identities(10)
        assert len(membership.distinct_identities) == 10

    def test_generators_reject_non_positive_sizes(self):
        with pytest.raises(ConfigurationError):
            unique_identities(0)
        with pytest.raises(ConfigurationError):
            anonymous_identities(-1)
        with pytest.raises(ConfigurationError):
            grouped_identities([])
        with pytest.raises(ConfigurationError):
            grouped_identities([2, 0])

    def test_identities_from_multiplicities(self):
        membership = identities_from_multiplicities({"A": 2, "B": 1})
        assert membership.identity_multiset() == IdentityMultiset(["A", "A", "B"])

    def test_identities_from_multiplicities_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            identities_from_multiplicities({"A": 0})

    def test_random_identities_deterministic_for_seed(self):
        first = random_identities(8, domain_size=3, seed=7)
        second = random_identities(8, domain_size=3, seed=7)
        assert first.identity_multiset() == second.identity_multiset()

    def test_random_identities_bounded_domain(self):
        membership = random_identities(20, domain_size=2, seed=1)
        assert len(membership.distinct_identities) <= 2

    def test_random_identities_validation(self):
        with pytest.raises(ConfigurationError):
            random_identities(5, domain_size=0, seed=1)


@given(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=8))
def test_identity_multiset_size_matches_membership(identities):
    membership = Membership.of(identities)
    assert len(membership.identity_multiset()) == membership.size
    # Sum of per-identity multiplicities equals n.
    assert sum(membership.multiplicity(i) for i in membership.distinct_identities) == membership.size


@given(st.integers(min_value=1, max_value=10))
def test_anonymous_membership_always_degree_n(n):
    membership = anonymous_identities(n)
    assert membership.homonymy_degree == n
