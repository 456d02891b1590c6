"""Tests for the shared experiment machinery."""

import pytest

from repro.experiments.common import (
    EPIDEMIC_PROTOCOLS,
    PROTOCOLS,
    fresh_pair,
    make_factory,
    make_items,
    protocol_class,
)
from repro.obs import OverheadCounters
from repro.substrate.operations import Put


class TestRegistry:
    def test_all_protocols_registered(self):
        assert set(PROTOCOLS) == {
            "dbvv", "dbvv-delta", "per-item-vv", "lotus", "oracle-push",
            "wuu-bernstein", "agrawal-malpani",
        }

    def test_epidemic_subset_is_registered(self):
        assert set(EPIDEMIC_PROTOCOLS) <= set(PROTOCOLS)

    def test_protocol_class_resolves(self):
        for name, cls in PROTOCOLS.items():
            assert protocol_class(name) is cls
            assert cls.protocol_name == name

    def test_unknown_protocol_raises_with_candidates(self):
        with pytest.raises(KeyError) as exc:
            protocol_class("carrier-pigeon")
        assert "dbvv" in str(exc.value)


class TestMakeItems:
    def test_names_are_sorted_and_unique(self):
        items = make_items(1000)
        assert len(set(items)) == 1000
        assert items == sorted(items)

    def test_prefix_respected(self):
        assert make_items(2, prefix="doc")[0].startswith("doc-")

    def test_zero_items(self):
        assert make_items(0) == []


class TestFactoryAndPair:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_factory_builds_working_nodes(self, name):
        items = make_items(5)
        factory = make_factory(name, 3, items)
        counters = OverheadCounters()
        node = factory(1, counters)
        assert node.node_id == 1
        assert node.n_nodes == 3
        node.user_update(items[0], Put(b"v"))
        assert node.read(items[0]) == b"v"

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_fresh_pair_syncs(self, name):
        items = make_items(5)
        pair = fresh_pair(name, items)
        if name in ("oracle-push", "agrawal-malpani"):
            # Push-style: the "recipient" pushes; seed it instead.
            pair.recipient.user_update(items[0], Put(b"v"))
            pair.sync()
            assert pair.source.read(items[0]) == b"v"
        else:
            pair.source.user_update(items[0], Put(b"v"))
            pair.sync()
            assert pair.recipient.read(items[0]) == b"v"

    def test_pair_counters_reset(self):
        pair = fresh_pair("dbvv", make_items(3))
        pair.source.user_update("item-00000", Put(b"v"))
        pair.sync()
        assert pair.session_work() > 0
        pair.reset()
        assert pair.session_work() == 0
        assert pair.transport_counters.bytes_sent == 0
