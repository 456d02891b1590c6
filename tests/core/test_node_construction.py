"""Constructor validation and representation tests for the node types."""

import pytest

from repro.core.delta import DeltaEpidemicNode
from repro.core.node import EpidemicNode
from repro.core.protocol import DBVVProtocolNode, DeltaProtocolNode
from repro.substrate.operations import Put

ITEMS = ["x", "y"]


class TestConstruction:
    @pytest.mark.parametrize("bad_id", [-1, 2, 99])
    def test_node_id_outside_replica_set_rejected(self, bad_id):
        with pytest.raises(ValueError):
            EpidemicNode(bad_id, 2, ITEMS)

    def test_duplicate_item_names_rejected(self):
        with pytest.raises(ValueError):
            EpidemicNode(0, 2, ["x", "x"])

    def test_empty_schema_is_allowed(self):
        """A database with no items is degenerate but legal — every
        session is trivially you-are-current."""
        a = EpidemicNode(0, 2, [])
        b = EpidemicNode(1, 2, [])
        outcome, _ = a.pull_from(b)
        assert outcome.adopted == []

    def test_single_node_replica_set(self):
        node = EpidemicNode(0, 1, ITEMS)
        node.update("x", Put(b"v"))
        assert node.dbvv.as_tuple() == (1,)
        node.check_invariants()

    def test_delta_negative_history_limit_rejected(self):
        with pytest.raises(ValueError):
            DeltaEpidemicNode(0, 2, ITEMS, history_limit=-1)

    def test_repr_is_informative(self):
        node = EpidemicNode(1, 3, ITEMS)
        node.update("x", Put(b"v"))
        text = repr(node)
        assert "id=1" in text
        assert "items=2" in text


class TestAdapterConstruction:
    def test_adapter_node_classes(self):
        assert DBVVProtocolNode.node_class is EpidemicNode
        assert DeltaProtocolNode.node_class is DeltaEpidemicNode

    def test_adapter_shares_counters_with_inner_node(self):
        from repro.obs import OverheadCounters

        counters = OverheadCounters()
        adapter = DBVVProtocolNode(0, 2, ITEMS, counters=counters)
        assert adapter.node.counters is counters

    def test_adapter_shares_conflict_reporter(self):
        """The adapter counts the conflicts its inner node declared."""
        a = DBVVProtocolNode(0, 2, ITEMS)
        b = DBVVProtocolNode(1, 2, ITEMS)
        a.node.update("x", Put(b"a"))
        b.node.update("x", Put(b"b"))
        a.node.pull_from(b.node)
        assert a.conflict_count() == a.node.conflicts.count == 1
