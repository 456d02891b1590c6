"""Unit tests for database version vectors (paper section 4.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.dbvv import DatabaseVersionVector
from repro.core.version_vector import Ordering, VersionVector
from repro.obs import OverheadCounters


class TestMaintenanceRules:
    def test_rule1_initially_zero(self):
        dbvv = DatabaseVersionVector(3)
        assert dbvv.as_tuple() == (0, 0, 0)

    def test_rule2_local_update_increments_own_component(self):
        dbvv = DatabaseVersionVector(3)
        dbvv.record_local_update_by(1)
        dbvv.record_local_update_by(1)
        dbvv.record_local_update_by(2)
        assert dbvv.as_tuple() == (0, 2, 1)

    def test_rule3_adds_per_origin_deltas(self):
        """V_il += v_jl(x) - v_il(x) for every l (the paper's formula)."""
        dbvv = DatabaseVersionVector(3)
        dbvv.record_local_update_by(0)  # V = (1, 0, 0)
        old_ivv = VersionVector.from_counts([1, 0, 0])
        new_ivv = VersionVector.from_counts([1, 2, 1])
        dbvv.absorb_item_copy(old_ivv, new_ivv)
        assert dbvv.as_tuple() == (1, 2, 1)

    def test_rule3_zero_delta_is_noop(self):
        dbvv = DatabaseVersionVector(2)
        ivv = VersionVector.from_counts([3, 1])
        dbvv.increment(0, 3)
        dbvv.increment(1, 1)
        dbvv.absorb_item_copy(ivv, ivv.copy())
        assert dbvv.as_tuple() == (3, 1)

    def test_rule3_rejects_non_dominating_new_copy(self):
        """Copying only happens source→recipient when the source is
        newer; a negative delta means the caller broke that and must
        fail loudly, not corrupt the DBVV."""
        dbvv = DatabaseVersionVector(2)
        with pytest.raises(ValueError):
            dbvv.absorb_item_copy(
                VersionVector.from_counts([2, 0]),
                VersionVector.from_counts([1, 5]),
            )

    def test_rule3_charges_component_touches(self):
        counters = OverheadCounters()
        dbvv = DatabaseVersionVector(4)
        dbvv.absorb_item_copy(
            VersionVector.zero(4),
            VersionVector.from_counts([1, 1, 0, 0]),
            counters,
        )
        assert counters.vv_components_touched == 4


@st.composite
def _adoptions(draw):
    """A DBVV's width, a start state, and (replaced, installed) IVV
    pairs in which every installed vector dominates-or-equals the one
    it replaces — what AcceptPropagation hands to rule 3."""
    n = draw(st.sampled_from([1, 2, 5, 64]))
    counts = st.lists(st.integers(0, 1 << 20), min_size=n, max_size=n)
    start = draw(counts)
    pairs = []
    for old in draw(st.lists(counts, max_size=6)):
        growth = draw(counts)
        pairs.append((old, [a + b for a, b in zip(old, growth)]))
    return n, start, pairs


def _dbvv(counts):
    dbvv = DatabaseVersionVector(len(counts))
    for k, count in enumerate(counts):
        dbvv.increment(k, count)
    return dbvv


class TestBatchedRule3:
    """``absorb_item_copies`` is rule 3 for a whole session: the sum of
    the per-item deltas, which commute."""

    @given(_adoptions())
    def test_batch_equals_the_sequence_of_single_absorbs(self, drawn):
        n, start, pairs = drawn
        olds = [VersionVector.from_counts(old) for old, _ in pairs]
        news = [VersionVector.from_counts(new) for _, new in pairs]
        one_by_one, batched = _dbvv(start), _dbvv(start)
        single_sink, batch_sink = OverheadCounters(), OverheadCounters()
        for old, new in zip(olds, news):
            one_by_one.absorb_item_copy(old, new, single_sink)
        batched.absorb_item_copies(olds, news, batch_sink)
        assert batched.as_tuple() == one_by_one.as_tuple()
        assert batched.total() == one_by_one.total() == batched.recompute_total()
        assert hash(batched) == hash(one_by_one)
        assert batch_sink.vv_components_touched == n * len(pairs)
        assert batch_sink == single_sink

    @given(_adoptions(), st.data())
    def test_negative_summed_delta_raises_and_changes_nothing(self, drawn, data):
        n, start, pairs = drawn
        # One pair that moves some component backwards by more than the
        # rest of the batch moves it forwards.
        k = data.draw(st.integers(0, n - 1))
        surplus = sum(new[k] - old[k] for old, new in pairs) + 1
        old = [0] * n
        old[k] = surplus
        pairs = pairs + [(old, [0] * n)]
        dbvv = _dbvv(start)
        dbvv.total(), hash(dbvv)  # warm the caches the absorb must not tear
        with pytest.raises(ValueError):
            dbvv.absorb_item_copies(
                [VersionVector.from_counts(old) for old, _ in pairs],
                [VersionVector.from_counts(new) for _, new in pairs],
            )
        assert dbvv.as_tuple() == tuple(start)
        assert dbvv.total() == sum(start) and hash(dbvv) == hash(_dbvv(start))

    def test_an_empty_batch_is_a_noop(self):
        dbvv = _dbvv([3, 1])
        dbvv.absorb_item_copies([], [])
        assert dbvv.as_tuple() == (3, 1)


class TestInheritedAlgebra:
    """DBVVs keep the full vector comparison algebra — the O(1)
    propagation-needed test is dominates_or_equal."""

    def test_dbvv_comparison_detects_identical_databases(self):
        a = DatabaseVersionVector(2)
        b = DatabaseVersionVector(2)
        a.record_local_update_by(0)
        b.record_local_update_by(0)
        assert a.dominates_or_equal(b)
        assert b.dominates_or_equal(a)

    def test_dbvv_detects_missing_updates(self):
        a = DatabaseVersionVector(2)
        b = DatabaseVersionVector(2)
        b.record_local_update_by(1)
        assert not a.dominates_or_equal(b)
        assert b.compare(a) is Ordering.DOMINATES
