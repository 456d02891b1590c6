"""Unit tests for the Wuu–Bernstein gossip baseline (section 8.3)."""

from repro.baselines.wuu_bernstein import WuuBernsteinNode
from repro.cluster.network import SimulatedNetwork
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

ITEMS = [f"item-{k}" for k in range(6)]


def make_nodes(n=3):
    counters = [OverheadCounters() for _ in range(n)]
    nodes = [WuuBernsteinNode(k, n, ITEMS, counters=counters[k]) for k in range(n)]
    return nodes, counters, SimulatedNetwork(n)


class TestGossip:
    def test_updates_travel_via_gossip(self):
        (a, b, _c), _, transport = make_nodes()
        a.user_update("item-0", Put(b"v"))
        stats = b.sync_with(a, transport)
        assert stats.items_transferred == 1
        assert b.read("item-0") == b"v"

    def test_gossip_forwards_third_party_updates(self):
        """Unlike Oracle push, gossip logs carry everything the sender
        knows, including other origins' updates."""
        (a, b, c), _, transport = make_nodes()
        a.user_update("item-0", Put(b"v"))
        b.sync_with(a, transport)
        c.sync_with(b, transport)
        assert c.read("item-0") == b"v"

    def test_time_table_rows_merge(self):
        (a, b, _c), _, transport = make_nodes()
        a.user_update("item-0", Put(b"v"))
        b.sync_with(a, transport)
        table = b._table
        assert table[b.node_id][a.node_id] == 1   # b knows a's update
        assert table[a.node_id][a.node_id] == 1   # and knows a knows it

    def test_identical_gossip_is_flagged(self):
        (a, b, _c), _, transport = make_nodes()
        stats = b.sync_with(a, transport)
        assert stats.identical

    def test_duplicate_records_not_reapplied(self):
        (a, b, _c), _, transport = make_nodes()
        a.user_update("item-0", Put(b"v"))
        b.sync_with(a, transport)
        stats = b.sync_with(a, transport)
        assert stats.items_transferred == 0


class TestLogGrowthAndGC:
    def test_log_grows_with_updates_until_gc(self):
        (a, _b, _c), _, _t = make_nodes()
        for k in range(20):
            a.user_update(ITEMS[k % len(ITEMS)], Put(f"v{k}".encode()))
        assert len(a._log) == 20  # unlike the paper's bounded log

    def test_gc_drops_universally_known_records(self):
        (a, b, c), _, transport = make_nodes()
        a.user_update("item-0", Put(b"v"))
        # Spread knowledge until everyone provably has the record.
        for _round in range(3):
            b.sync_with(a, transport)
            c.sync_with(b, transport)
            a.sync_with(c, transport)
        assert len(a._log) == 0

    def test_gossip_scan_cost_is_linear_in_log(self):
        """The paper's footnote 4: every send scans the whole log."""
        nodes, counters, transport = make_nodes()
        a, b, _c = nodes
        for k in range(15):
            a.user_update(ITEMS[k % len(ITEMS)], Put(f"v{k}".encode()))
        counters[0].reset()
        b.sync_with(a, transport)
        assert counters[0].log_records_examined == 15

    def test_message_carries_n_squared_table(self):
        traffic = OverheadCounters()
        transport = SimulatedNetwork(8, counters=traffic)
        small = [WuuBernsteinNode(k, 2, ITEMS) for k in range(2)]
        small[1].sync_with(small[0], transport)
        small_bytes = traffic.bytes_sent
        traffic.reset()
        big = [WuuBernsteinNode(k, 8, ITEMS) for k in range(8)]
        big[1].sync_with(big[0], transport)
        assert traffic.bytes_sent > small_bytes * 4  # n² growth


class TestConvergence:
    def test_full_rotation_converges(self):
        nodes, _, transport = make_nodes()
        for idx, node in enumerate(nodes):
            node.user_update(ITEMS[idx], Put(f"from-{idx}".encode()))
        for _round in range(3):
            for dst in nodes:
                for src in nodes:
                    if dst is not src:
                        dst.sync_with(src, transport)
        reference = nodes[0].state_fingerprint()
        assert all(n.state_fingerprint() == reference for n in nodes)
