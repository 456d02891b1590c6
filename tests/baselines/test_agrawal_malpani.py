"""Unit tests for the Agrawal–Malpani decoupled-dissemination baseline
(paper section 8.3)."""

import pytest

from repro.baselines.agrawal_malpani import AgrawalMalpaniNode
from repro.cluster.network import SimulatedNetwork
from repro.interfaces import DirectTransport
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

ITEMS = [f"item-{k}" for k in range(6)]


def make_nodes(n=3, vector_exchange_every=4):
    counters = [OverheadCounters() for _ in range(n)]
    nodes = [
        AgrawalMalpaniNode(
            k, n, ITEMS, counters=counters[k],
            vector_exchange_every=vector_exchange_every,
        )
        for k in range(n)
    ]
    return nodes, counters, DirectTransport(OverheadCounters())


class TestLogPush:
    def test_records_push_and_apply(self):
        (a, b, _c), _, transport = make_nodes()
        a.user_update("item-0", Put(b"v"))
        stats = a.sync_with(b, transport)
        assert stats.items_transferred == 1
        assert b.read("item-0") == b"v"

    def test_pushes_forward_third_party_updates(self):
        (a, b, c), _, transport = make_nodes()
        a.user_update("item-0", Put(b"v"))
        a.sync_with(b, transport)
        b.sync_with(c, transport)
        assert c.read("item-0") == b"v"

    def test_nothing_fresh_means_identical(self):
        (a, b, _c), _, transport = make_nodes()
        stats = a.sync_with(b, transport)
        assert stats.identical

    def test_duplicate_pushes_are_suppressed_by_cursors(self):
        (a, b, _c), _, transport = make_nodes()
        a.user_update("item-0", Put(b"v"))
        a.sync_with(b, transport)
        stats = a.sync_with(b, transport)
        assert stats.items_transferred == 0

    def test_out_of_prefix_records_are_dropped(self):
        """A record arriving past a gap is dropped by the cheap path
        (the vector exchange exists to repair exactly this)."""
        from repro.baselines.agrawal_malpani import AMRecord

        (a, *_), _, _transport = make_nodes()
        # Origin 1's record with seqno 2 arrives while a has none of
        # origin 1's records: not the next prefix element — dropped.
        gap_record = AMRecord("item-0", b"gapped", seqno=2, origin=1)
        assert a._accept_records((gap_record,)) == (0, ())
        assert a.read("item-0") == b""
        # The prefix element is accepted, and then its successor.
        first = AMRecord("item-0", b"first", seqno=1, origin=1)
        assert a._accept_records((first, gap_record)) == (2, ("item-0", "item-0"))
        assert a.read("item-0") == b"gapped"


class TestVectorExchange:
    def test_gap_from_failed_push_is_repaired(self):
        """The signature scenario: a push is lost (recipient down); the
        cheap path never retries, the vector exchange repairs."""
        n = 2
        network = SimulatedNetwork(n, ITEMS)
        a = AgrawalMalpaniNode(0, n, ITEMS, vector_exchange_every=3)
        b = AgrawalMalpaniNode(1, n, ITEMS, vector_exchange_every=3)
        a.user_update("item-0", Put(b"v"))
        network.set_down(1)
        from repro.interfaces import SessionPhase

        stats = a.sync_with(b, network)      # push lost; cursor advanced
        assert stats.failed
        assert stats.aborted_phase is SessionPhase.REQUEST_SENT
        network.set_up(1)
        stats = a.sync_with(b, network)      # push has nothing fresh
        assert stats.items_transferred == 0
        assert b.read("item-0") == b""       # still stale!
        stats = a.sync_with(b, network)      # 3rd call: vector exchange
        assert b.read("item-0") == b"v"
        assert b.repairs == 1

    def test_exchange_repairs_both_directions(self):
        (a, b, _c), _, transport = make_nodes(vector_exchange_every=1)
        a.user_update("item-0", Put(b"from-a"))
        b.user_update("item-1", Put(b"from-b"))
        # Manufacture two-way staleness without pushes: directly sync
        # with exchange-on-every-call; the push moves a's records and
        # the symmetric exchange pulls b's back.
        a.sync_with(b, transport)
        assert b.read("item-0") == b"from-a"
        assert a.read("item-1") == b"from-b"

    def test_exchange_cadence(self):
        (a, b, _c), _, transport = make_nodes(vector_exchange_every=4)
        for _ in range(8):
            a.sync_with(b, transport)
        assert a.vector_exchanges == 2

    def test_bad_cadence_rejected(self):
        with pytest.raises(ValueError):
            AgrawalMalpaniNode(0, 2, ITEMS, vector_exchange_every=0)


class TestCharacterization:
    def test_conflicts_resolve_silently_by_lww(self):
        (a, b, _c), _, transport = make_nodes(vector_exchange_every=1)
        a.user_update("item-0", Put(b"from-a"))
        b.user_update("item-0", Put(b"from-b"))
        a.sync_with(b, transport)
        b.sync_with(a, transport)
        assert a.read("item-0") == b.read("item-0")
        assert a.conflict_count() == 0  # silent — the paper's criticism

    def test_push_cost_scans_candidate_records(self):
        nodes, counters, transport = make_nodes()
        a, b, _c = nodes
        for k in range(10):
            a.user_update(ITEMS[k % len(ITEMS)], Put(f"v{k}".encode()))
        counters[0].reset()
        a.sync_with(b, transport)
        assert counters[0].log_records_examined == 10

    def test_cross_protocol_rejected(self):
        from repro.baselines.lotus import LotusNode

        (a, *_), _, transport = make_nodes()
        with pytest.raises(TypeError):
            a.sync_with(LotusNode(1, 3, ITEMS), transport)
