"""Unit tests for the Lotus Notes baseline (paper section 8.1)."""


from repro.baselines.lotus import LotusNode
from repro.cluster.network import SimulatedNetwork
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

ITEMS = [f"item-{k}" for k in range(8)]


def make_nodes(n=2):
    counters = [OverheadCounters() for _ in range(n)]
    nodes = [LotusNode(k, n, ITEMS, counters=counters[k]) for k in range(n)]
    return nodes, counters, SimulatedNetwork(n)


class TestBasicReplication:
    def test_modified_items_propagate(self):
        nodes, _counters, transport = make_nodes()
        a, b = nodes
        b.user_update("item-1", Put(b"v"))
        stats = a.sync_with(b, transport)
        assert stats.items_transferred == 1
        assert a.read("item-1") == b"v"
        assert a._doc("item-1").seqno == 1

    def test_nothing_changed_is_constant_time(self):
        """The one case Lotus detects cheaply: nothing modified at the
        source since its last propagation to this recipient."""
        nodes, counters, transport = make_nodes()
        a, b = nodes
        b.user_update("item-1", Put(b"v"))
        a.sync_with(b, transport)
        counters[1].reset()
        stats = a.sync_with(b, transport)
        assert stats.identical
        assert counters[1].items_scanned == 0

    def test_change_list_scan_is_linear_in_database(self):
        nodes, counters, transport = make_nodes()
        a, b = nodes
        b.user_update("item-1", Put(b"v"))
        counters[1].reset()
        a.sync_with(b, transport)
        assert counters[1].items_scanned == len(ITEMS)

    def test_transitive_convergence_on_clean_histories(self):
        nodes = [LotusNode(k, 3, ITEMS) for k in range(3)]
        transport = SimulatedNetwork(3)
        nodes[0].user_update("item-0", Put(b"v"))
        nodes[1].sync_with(nodes[0], transport)
        nodes[2].sync_with(nodes[1], transport)
        assert nodes[2].read("item-0") == b"v"


class TestPaperDeficiencies:
    def test_redundant_session_after_indirect_copy(self):
        """Paper section 8.1: identical replicas, but the source scans
        and ships a change list anyway."""
        nodes = [LotusNode(k, 3, ITEMS, counters=OverheadCounters()) for k in range(3)]
        transport = SimulatedNetwork(3)
        nodes[0].user_update("item-0", Put(b"v"))
        nodes[1].sync_with(nodes[0], transport)
        nodes[2].sync_with(nodes[1], transport)
        # nodes[2] and nodes[0] are identical now.
        assert nodes[2].state_fingerprint() == nodes[0].state_fingerprint()
        counters = nodes[0].counters
        counters.reset()
        stats = nodes[2].sync_with(nodes[0], transport)
        assert not stats.identical           # Lotus cannot tell
        assert counters.items_scanned == len(ITEMS)

    def test_lost_update_on_concurrent_writes(self):
        """The paper's 2-vs-1 example: the higher sequence number wins
        silently; j's concurrent update is destroyed (C2 violated)."""
        nodes, _counters, transport = make_nodes()
        a, b = nodes
        a.user_update("x" if "x" in ITEMS else ITEMS[0], Put(b"i-1"))
        a.user_update(ITEMS[0], Put(b"i-2"))
        b.user_update(ITEMS[0], Put(b"j-only"))
        stats = b.sync_with(a, transport)
        assert stats.items_transferred == 1
        assert b.read(ITEMS[0]) == b"i-2"    # j's update silently lost
        assert stats.conflicts == 0          # and nobody was told
        assert b.conflict_count() == 0

    def test_equal_seqno_ties_broken_by_writer_id(self):
        """Modelling choice documented in the module: ties cannot be
        recognized as conflicts either — the higher writer id wins."""
        nodes, _counters, transport = make_nodes()
        a, b = nodes
        a.user_update(ITEMS[0], Put(b"from-0"))
        b.user_update(ITEMS[0], Put(b"from-1"))
        a.sync_with(b, transport)
        b.sync_with(a, transport)
        assert a.read(ITEMS[0]) == b.read(ITEMS[0]) == b"from-1"
