"""Unit tests for the Oracle-style deferred-push baseline (section 8.2)."""

import pytest

from repro.baselines.oracle import OraclePushNode
from repro.cluster.failures import CrashAfterPartialPush
from repro.cluster.network import SimulatedNetwork
from repro.errors import UnknownItemError
from repro.interfaces import DirectTransport
from repro.obs import OverheadCounters

from repro.substrate.operations import Put

ITEMS = [f"item-{k}" for k in range(6)]


def make_nodes(n=3):
    nodes = [OraclePushNode(k, n, ITEMS) for k in range(n)]
    return nodes, DirectTransport(OverheadCounters())


class TestDeferredQueue:
    def test_updates_accumulate_in_queue(self):
        (a, b, _), _t = make_nodes()
        a.user_update("item-0", Put(b"v1"))
        a.user_update("item-1", Put(b"v2"))
        assert a.pending_for(b.node_id) == 2

    def test_unknown_item_rejected(self):
        (a, *_), _t = make_nodes()
        with pytest.raises(UnknownItemError):
            a.user_update("nope", Put(b"v"))

    def test_push_delivers_and_acks(self):
        (a, b, _), transport = make_nodes()
        a.user_update("item-0", Put(b"v"))
        stats = a.sync_with(b, transport)
        assert stats.items_transferred == 1
        assert b.read("item-0") == b"v"
        assert a.pending_for(b.node_id) == 0

    def test_nothing_pending_is_identical(self):
        (a, b, _), transport = make_nodes()
        stats = a.sync_with(b, transport)
        assert stats.identical
        assert stats.messages == 0

    def test_acks_are_per_peer(self):
        (a, b, c), transport = make_nodes()
        a.user_update("item-0", Put(b"v"))
        a.sync_with(b, transport)
        assert a.pending_for(b.node_id) == 0
        assert a.pending_for(c.node_id) == 1

    def test_lww_resolves_concurrent_writes_silently(self):
        (a, b, _), transport = make_nodes()
        a.user_update("item-0", Put(b"from-a"))
        b.user_update("item-0", Put(b"from-b"))
        a.sync_with(b, transport)
        b.sync_with(a, transport)
        # Same stamp rank (1, origin): origin 1 wins; no conflict ever
        # reported — the silence the paper criticizes.
        assert a.read("item-0") == b.read("item-0") == b"from-b"
        assert a.conflict_count() == 0


class TestNoForwarding:
    def test_recipients_never_forward(self):
        """The defining property: b got a's update but pushing b→c moves
        nothing, because b only pushes its own updates."""
        (a, b, c), transport = make_nodes()
        a.user_update("item-0", Put(b"v"))
        a.sync_with(b, transport)
        stats = b.sync_with(c, transport)
        assert stats.identical
        assert c.read("item-0") == b""

    def test_push_to_all_reaches_every_peer(self):
        (a, b, c), transport = make_nodes()
        a.user_update("item-0", Put(b"v"))
        results = a.push_to_all([a, b, c], transport)
        assert len(results) == 2
        assert b.read("item-0") == c.read("item-0") == b"v"


class TestCrashMidPush:
    def test_partial_push_strands_remaining_peers(self):
        """Paper section 8.2's failure scenario, at protocol level."""
        n = 4
        network = SimulatedNetwork(n, ITEMS)
        nodes = [OraclePushNode(k, n, ITEMS) for k in range(n)]
        nodes[0].user_update("item-0", Put(b"v"))
        crash = CrashAfterPartialPush(node=0, after_peers=1)
        nodes[0].push_to_all(nodes, network, partial_crash=crash)
        assert crash.fired
        assert nodes[1].read("item-0") == b"v"      # reached
        assert nodes[2].read("item-0") == b""       # stranded
        assert nodes[3].read("item-0") == b""
        # Survivor pushes move nothing (no forwarding).
        for src in (1, 2, 3):
            for dst in (1, 2, 3):
                if src != dst:
                    nodes[src].sync_with(nodes[dst], network)
        assert nodes[2].read("item-0") == b""
        # Only repair ends the staleness.
        network.set_up(0)
        nodes[0].push_to_all(nodes, network)
        assert nodes[2].read("item-0") == b"v"
        assert nodes[3].read("item-0") == b"v"
