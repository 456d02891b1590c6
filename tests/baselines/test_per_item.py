"""Unit tests for the per-item version-vector baseline."""

import pytest

from repro.baselines.per_item import PerItemVVNode
from repro.cluster.network import SimulatedNetwork
from repro.errors import UnknownItemError
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

ITEMS = [f"item-{k}" for k in range(10)]


def make_pair():
    ca, cb = OverheadCounters(), OverheadCounters()
    a = PerItemVVNode(0, 2, ITEMS, counters=ca)
    b = PerItemVVNode(1, 2, ITEMS, counters=cb)
    return a, b, SimulatedNetwork(2), ca, cb


class TestUserOperations:
    def test_update_and_read(self):
        a, *_ = make_pair()
        a.user_update("item-0", Put(b"v"))
        assert a.read("item-0") == b"v"

    def test_unknown_item_rejected(self):
        a, *_ = make_pair()
        with pytest.raises(UnknownItemError):
            a.user_update("nope", Put(b"v"))
        with pytest.raises(UnknownItemError):
            a.read("nope")


class TestAntiEntropy:
    def test_newer_items_are_copied(self):
        a, b, transport, *_ = make_pair()
        b.user_update("item-1", Put(b"v"))
        stats = a.sync_with(b, transport)
        assert stats.items_transferred == 1
        assert a.read("item-1") == b"v"

    def test_identical_replicas_detected_but_at_linear_cost(self):
        """The correctness is fine — the point is the cost: every
        session compares all N IVVs."""
        a, b, transport, ca, _cb = make_pair()
        stats = a.sync_with(b, transport)
        assert stats.identical
        assert ca.vv_comparisons == len(ITEMS)
        assert ca.items_scanned == len(ITEMS)

    def test_source_scan_is_linear_too(self):
        a, b, transport, _ca, cb = make_pair()
        a.sync_with(b, transport)
        assert cb.items_scanned == len(ITEMS)

    def test_conflicts_detected(self):
        a, b, transport, *_ = make_pair()
        a.user_update("item-0", Put(b"a"))
        b.user_update("item-0", Put(b"b"))
        stats = a.sync_with(b, transport)
        assert stats.conflicts == 1
        assert a.conflict_count() == 1
        assert a.read("item-0") == b"a"  # not overwritten (C2 holds)

    def test_transitive_convergence(self):
        nodes = [PerItemVVNode(k, 3, ITEMS) for k in range(3)]
        transport = SimulatedNetwork(3)
        nodes[0].user_update("item-2", Put(b"v"))
        nodes[1].sync_with(nodes[0], transport)
        nodes[2].sync_with(nodes[1], transport)
        assert nodes[2].read("item-2") == b"v"

    def test_cross_protocol_rejected(self):
        from repro.baselines.lotus import LotusNode

        a, _b, transport, *_ = make_pair()
        with pytest.raises(TypeError):
            a.sync_with(LotusNode(1, 2, ITEMS), transport)

    def test_metadata_traffic_scales_with_n_items(self):
        counters = OverheadCounters()
        transport = SimulatedNetwork(2, counters=counters)
        small_a = PerItemVVNode(0, 2, ITEMS[:2])
        small_b = PerItemVVNode(1, 2, ITEMS[:2])
        small_a.sync_with(small_b, transport)
        small_bytes = counters.bytes_sent
        counters.reset()
        big_a = PerItemVVNode(0, 2, ITEMS)
        big_b = PerItemVVNode(1, 2, ITEMS)
        big_a.sync_with(big_b, transport)
        assert counters.bytes_sent > small_bytes * 3
