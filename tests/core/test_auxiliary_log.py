"""Unit tests for the auxiliary log (paper section 4.4)."""

import pytest

from repro.core.auxiliary import AuxiliaryLog
from repro.core.version_vector import VersionVector
from repro.substrate.operations import Append, Put


def vv(*counts):
    return VersionVector.from_counts(list(counts))


class TestAppendAndEarliest:
    def test_earliest_returns_oldest_record_for_item(self):
        log = AuxiliaryLog()
        log.append("x", vv(0, 0), Put(b"1"))
        log.append("x", vv(0, 1), Put(b"2"))
        earliest = log.earliest("x")
        assert earliest is not None
        assert earliest.op == Put(b"1")

    def test_earliest_for_unknown_item_is_none(self):
        assert AuxiliaryLog().earliest("x") is None

    def test_pre_ivv_is_snapshotted(self):
        """The caller increments the live IVV right after appending; the
        record must keep the pre-update value."""
        log = AuxiliaryLog()
        live = vv(1, 0)
        log.append("x", live, Put(b"v"))
        live.increment(1)
        record = log.earliest("x")
        assert record.pre_ivv.as_tuple() == (1, 0)

    def test_records_interleave_items_in_global_order(self):
        log = AuxiliaryLog()
        log.append("x", vv(0, 0), Put(b"1"))
        log.append("y", vv(0, 0), Put(b"2"))
        log.append("x", vv(0, 1), Put(b"3"))
        assert [r.item for r in log] == ["x", "y", "x"]

    def test_len_counts_all_records(self):
        log = AuxiliaryLog()
        for k in range(5):
            log.append("x", vv(0, k), Append(b"."))
        assert len(log) == 5
        assert [record.item for record in log] == ["x"] * 5


class TestPopEarliest:
    def test_pop_consumes_in_fifo_order_per_item(self):
        log = AuxiliaryLog()
        log.append("x", vv(0, 0), Put(b"1"))
        log.append("x", vv(0, 1), Put(b"2"))
        assert log.pop_earliest("x").op == Put(b"1")
        assert log.pop_earliest("x").op == Put(b"2")
        assert not log.has_records("x")

    def test_pop_from_middle_of_global_list(self):
        """An item's earliest record can sit mid-list globally — removal
        must still be O(1) and leave both chains intact."""
        log = AuxiliaryLog()
        log.append("a", vv(0, 0), Put(b"1"))
        log.append("b", vv(0, 0), Put(b"2"))
        log.append("a", vv(0, 1), Put(b"3"))
        log.pop_earliest("b")
        assert [r.item for r in log] == ["a", "a"]
        log.check_invariants()

    def test_pop_missing_item_raises(self):
        with pytest.raises(KeyError):
            AuxiliaryLog().pop_earliest("x")

    def test_pop_updates_global_head_and_tail(self):
        log = AuxiliaryLog()
        log.append("a", vv(0, 0), Put(b"1"))
        log.append("b", vv(0, 0), Put(b"2"))
        log.pop_earliest("a")
        log.pop_earliest("b")
        assert len(log) == 0
        log.check_invariants()


class TestDiscardItem:
    def test_discard_drops_all_records_for_item(self):
        log = AuxiliaryLog()
        log.append("x", vv(0, 0), Put(b"1"))
        log.append("y", vv(0, 0), Put(b"2"))
        log.append("x", vv(0, 1), Put(b"3"))
        assert log.discard_item("x") == 2
        assert [r.item for r in log] == ["y"]
        log.check_invariants()

    def test_discard_missing_item_returns_zero(self):
        assert AuxiliaryLog().discard_item("x") == 0


class TestInvariants:
    def test_seq_numbers_are_monotonic(self):
        log = AuxiliaryLog()
        records = [log.append("x", vv(0, k), Put(b"v")) for k in range(4)]
        seqs = [r.seq for r in records]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_heavy_interleaving_keeps_chains_consistent(self):
        log = AuxiliaryLog()
        items = ["a", "b", "c"]
        for k in range(60):
            log.append(items[k % 3], vv(0, k), Append(b"."))
        for _ in range(10):
            log.pop_earliest("b")
        log.discard_item("a")
        log.check_invariants()
        items = [record.item for record in log]
        assert (items.count("a"), items.count("b"), items.count("c")) == (0, 10, 20)
