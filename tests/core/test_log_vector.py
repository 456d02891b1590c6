"""Unit tests for the log vector (paper section 4.2, Figure 1)."""

import pytest

from repro.core.log_vector import LogComponent, LogVector
from repro.errors import UnknownNodeError
from repro.obs import OverheadCounters


class TestAddLogRecord:
    """The paper's AddLogRecord: append + O(1) eviction of the previous
    record for the same item."""

    def test_records_append_in_order(self):
        log = LogComponent(origin=0)
        log.add("y", 1)
        log.add("x", 3)
        log.add("z", 4)
        assert log.pairs() == [("y", 1), ("x", 3), ("z", 4)]

    def test_figure_1_scenario(self):
        """Figure 1: adding (x,5) to [y:1, x:3, z:4] yields [y:1, z:4, x:5]."""
        log = LogComponent(origin=0)
        log.add("y", 1)
        log.add("x", 3)
        log.add("z", 4)
        log.add("x", 5)
        assert log.pairs() == [("y", 1), ("z", 4), ("x", 5)]

    def test_at_most_one_record_per_item(self):
        log = LogComponent(origin=0)
        for seqno in range(1, 100):
            log.add("x", seqno)
        assert len(log) == 1
        assert log.pairs() == [("x", 99)]

    def test_eviction_counted(self):
        counters = OverheadCounters()
        log = LogComponent(origin=0)
        log.add("x", 1, counters)
        log.add("x", 2, counters)
        log.add("y", 3, counters)
        assert counters.log_records_added == 3
        assert counters.log_records_evicted == 1

    def test_out_of_order_add_rejected(self):
        log = LogComponent(origin=0)
        log.add("x", 5)
        with pytest.raises(ValueError):
            log.add("y", 5)
        with pytest.raises(ValueError):
            log.add("y", 3)

    def test_evicting_head_keeps_list_intact(self):
        log = LogComponent(origin=0)
        log.add("x", 1)
        log.add("y", 2)
        log.add("x", 3)  # evicts the head record
        assert log.pairs() == [("y", 2), ("x", 3)]
        log.check_invariants()

    def test_evicting_middle_keeps_list_intact(self):
        log = LogComponent(origin=0)
        log.add("a", 1)
        log.add("b", 2)
        log.add("c", 3)
        log.add("b", 4)
        assert log.pairs() == [("a", 1), ("c", 3), ("b", 4)]
        log.check_invariants()

    def test_readding_an_item_replaces_its_record(self):
        log = LogComponent(origin=0)
        log.add("x", 1)
        log.add("x", 2)
        assert log.pairs() == [("x", 2)]
        assert not log.discard_item("missing")

    def test_max_seqno_tracks_tail(self):
        log = LogComponent(origin=0)
        assert log.max_seqno == 0
        log.add("x", 7)
        assert log.max_seqno == 7


class TestTailExtraction:
    def test_tail_after_returns_suffix_oldest_first(self):
        log = LogComponent(origin=0)
        for seqno, item in enumerate(["a", "b", "c", "d"], start=1):
            log.add(item, seqno)
        assert log.tail_after(2) == [("c", 3), ("d", 4)]

    def test_tail_after_zero_returns_everything(self):
        log = LogComponent(origin=0)
        log.add("a", 1)
        log.add("b", 2)
        assert len(log.tail_after(0)) == 2

    def test_tail_after_max_returns_nothing(self):
        log = LogComponent(origin=0)
        log.add("a", 1)
        assert log.tail_after(1) == []

    def test_tail_cost_is_linear_in_suffix_not_log_size(self):
        """The backwards walk touches only returned records — the O(m)
        guarantee of SendPropagation (paper section 6)."""
        log = LogComponent(origin=0)
        for seqno in range(1, 1001):
            log.add(f"item-{seqno}", seqno)
        counters = OverheadCounters()
        tail = log.tail_after(997, counters)
        assert len(tail) == 3
        assert counters.log_records_examined == 3

    def test_tail_of_empty_log(self):
        assert LogComponent(origin=0).tail_after(0) == []


class TestDiscardItem:
    def test_discard_removes_items_record(self):
        log = LogComponent(origin=0)
        log.add("x", 1)
        log.add("y", 2)
        assert log.discard_item("x")
        assert log.pairs() == [("y", 2)]
        log.check_invariants()

    def test_discard_missing_item_returns_false(self):
        log = LogComponent(origin=0)
        assert not log.discard_item("x")

    def test_discarded_item_can_be_readded(self):
        log = LogComponent(origin=0)
        log.add("x", 1)
        log.discard_item("x")
        log.add("x", 5)
        assert log.pairs() == [("x", 5)]


class TestLogVector:
    def test_one_component_per_origin(self):
        vector = LogVector(3)
        assert vector.n_nodes == 3
        assert vector[0].origin == 0
        assert vector[2].origin == 2

    def test_empty_replica_set_rejected(self):
        with pytest.raises(ValueError):
            LogVector(0)

    def test_unknown_origin_raises(self):
        with pytest.raises(UnknownNodeError):
            LogVector(2)[5]

    def test_len_sums_components(self):
        vector = LogVector(2)
        vector.add(0, "x", 1)
        vector.add(1, "x", 1)
        vector.add(1, "y", 2)
        assert len(vector) == 3

    def test_total_records_bounded_by_n_times_items(self):
        """The n·N bound (paper section 4.2) under heavy updates."""
        vector = LogVector(3)
        items = [f"i{k}" for k in range(10)]
        seqnos = [0, 0, 0]
        for step in range(500):
            origin = step % 3
            seqnos[origin] += 1
            vector.add(origin, items[step % len(items)], seqnos[origin])
        assert len(vector) <= 3 * len(items)
        vector.check_invariants()

    def test_discard_item_across_components(self):
        vector = LogVector(3)
        vector.add(0, "x", 1)
        vector.add(1, "x", 1)
        vector.add(2, "y", 1)
        assert vector.discard_item("x") == 2
        assert len(vector) == 1

    def test_components_listing(self):
        vector = LogVector(2)
        assert [c.origin for c in vector.components()] == [0, 1]
