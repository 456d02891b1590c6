"""Unit tests for database version vectors (paper section 4.1)."""

import pytest

from repro.core.dbvv import DatabaseVersionVector
from repro.core.version_vector import VersionVector
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

    def test_record_local_update_without_node_is_rejected(self):
        dbvv = DatabaseVersionVector(2)
        with pytest.raises(TypeError):
            dbvv.record_local_update()

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
        assert a.missing_from(b) == {1: 1}
