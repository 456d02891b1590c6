"""Unit tests for version vectors (paper section 3, Theorem 3)."""

import pytest

from repro.core.version_vector import Ordering, VersionVector, merge
from repro.errors import ReplicaSetMismatchError, UnknownNodeError


class TestConstruction:
    def test_zero_vector_has_all_zero_components(self):
        vv = VersionVector.zero(4)
        assert list(vv) == [0, 0, 0, 0]

    def test_from_counts_adopts_components(self):
        vv = VersionVector.from_counts([1, 2, 3])
        assert vv.as_tuple() == (1, 2, 3)

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            VersionVector.from_counts([1, -2])

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            VersionVector(-1)

    def test_copy_is_independent(self):
        vv = VersionVector.from_counts([1, 2])
        other = vv.copy()
        other.increment(0)
        assert vv.as_tuple() == (1, 2)
        assert other.as_tuple() == (2, 2)

    def test_empty_vector_allowed(self):
        vv = VersionVector.zero(0)
        assert len(vv) == 0
        assert vv.total() == 0


class TestContainerProtocol:
    def test_len_matches_replica_set(self):
        assert len(VersionVector.zero(7)) == 7

    def test_getitem_returns_component(self):
        vv = VersionVector.from_counts([5, 9])
        assert vv[0] == 5
        assert vv[1] == 9

    def test_getitem_out_of_range_raises_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            VersionVector.zero(2)[5]

    def test_setitem_updates_component(self):
        vv = VersionVector.zero(2)
        vv[1] = 4
        assert vv.as_tuple() == (0, 4)

    def test_setitem_negative_rejected(self):
        vv = VersionVector.zero(2)
        with pytest.raises(ValueError):
            vv[0] = -1

    def test_equality_is_by_value(self):
        assert VersionVector.from_counts([1, 2]) == VersionVector.from_counts([1, 2])
        assert VersionVector.from_counts([1, 2]) != VersionVector.from_counts([2, 1])

    def test_hash_consistent_with_equality(self):
        a = VersionVector.from_counts([1, 2])
        b = VersionVector.from_counts([1, 2])
        assert hash(a) == hash(b)

    def test_total_sums_components(self):
        assert VersionVector.from_counts([3, 4, 5]).total() == 12


class TestIncrement:
    def test_increment_own_entry(self):
        vv = VersionVector.zero(3)
        vv.increment(1)
        assert vv.as_tuple() == (0, 1, 0)

    def test_increment_by_amount(self):
        vv = VersionVector.zero(2)
        vv.increment(0, by=5)
        assert vv[0] == 5

    def test_increment_negative_amount_rejected(self):
        vv = VersionVector.zero(2)
        with pytest.raises(ValueError):
            vv.increment(0, by=-1)

    def test_increment_unknown_node_raises(self):
        vv = VersionVector.zero(2)
        with pytest.raises(UnknownNodeError):
            vv.increment(9)


class TestComparison:
    """The four-way classification of Theorem 3's corollaries."""

    def test_equal_vectors(self):
        a = VersionVector.from_counts([1, 2])
        b = VersionVector.from_counts([1, 2])
        assert a.compare(b) is Ordering.EQUAL

    def test_dominates_when_ahead_everywhere(self):
        a = VersionVector.from_counts([2, 3])
        b = VersionVector.from_counts([1, 2])
        assert a.compare(b) is Ordering.DOMINATES
        assert b.compare(a) is Ordering.DOMINATED

    def test_dominates_when_ahead_in_one_component(self):
        a = VersionVector.from_counts([1, 3])
        b = VersionVector.from_counts([1, 2])
        assert a.compare(b) is Ordering.DOMINATES

    def test_concurrent_when_each_side_ahead_somewhere(self):
        a = VersionVector.from_counts([2, 0])
        b = VersionVector.from_counts([0, 2])
        assert a.compare(b) is Ordering.CONCURRENT
        assert b.compare(a) is Ordering.CONCURRENT

    def test_dominates_or_equal_accepts_equality(self):
        a = VersionVector.from_counts([1, 2])
        assert a.dominates_or_equal(a.copy())

    def test_dominates_or_equal_rejects_concurrent(self):
        a = VersionVector.from_counts([2, 0])
        b = VersionVector.from_counts([0, 2])
        assert not a.dominates_or_equal(b)

    def test_strict_domination_is_not_reflexive(self):
        a = VersionVector.from_counts([1, 1])
        assert a.compare(a.copy()) is not Ordering.DOMINATES

    def test_mismatched_sizes_raise(self):
        with pytest.raises(ReplicaSetMismatchError):
            VersionVector.zero(2).compare(VersionVector.zero(3))

    def test_flipped_ordering(self):
        """Swapping the operands mirrors the ordering."""
        a = VersionVector.from_counts([2, 1])
        b = VersionVector.from_counts([1, 1])
        assert (a.compare(b), b.compare(a)) == (
            Ordering.DOMINATES, Ordering.DOMINATED
        )
        assert b.compare(b.copy()) is Ordering.EQUAL

    def test_module_level_helpers(self):
        """``merge``, the one module-level helper, is ``merge_from`` on
        a copy."""
        a = VersionVector.from_counts([2, 0])
        b = VersionVector.from_counts([1, 1])
        joined = a.copy()
        joined.merge_from(b)
        assert merge(a, b) == joined
        assert merge(a, b).compare(a) is Ordering.DOMINATES


class TestMerge:
    def test_merge_takes_componentwise_max(self):
        a = VersionVector.from_counts([1, 5])
        b = VersionVector.from_counts([3, 2])
        assert merge(a, b).as_tuple() == (3, 5)

    def test_merge_does_not_mutate_operands(self):
        a = VersionVector.from_counts([1, 5])
        b = VersionVector.from_counts([3, 2])
        merge(a, b)
        assert a.as_tuple() == (1, 5)
        assert b.as_tuple() == (3, 2)

    def test_merge_from_mutates_in_place(self):
        a = VersionVector.from_counts([1, 5])
        a.merge_from(VersionVector.from_counts([3, 2]))
        assert a.as_tuple() == (3, 5)

    def test_merged_vector_dominates_or_equals_both(self):
        a = VersionVector.from_counts([2, 0, 1])
        b = VersionVector.from_counts([0, 3, 1])
        m = merge(a, b)
        assert m.dominates_or_equal(a)
        assert m.dominates_or_equal(b)

    def test_merge_mismatched_sizes_raise(self):
        with pytest.raises(ReplicaSetMismatchError):
            merge(VersionVector.zero(2), VersionVector.zero(4))
