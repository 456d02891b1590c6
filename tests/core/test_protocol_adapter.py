"""Unit tests for the DBVV ProtocolNode adapter."""

import pytest

from repro.baselines.lotus import LotusNode
from repro.cluster.network import SimulatedNetwork
from repro.core.protocol import DBVVProtocolNode
from repro.interfaces import SessionPhase
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

ITEMS = ["x", "y"]


def make_pair():
    ca, cb, ct = OverheadCounters(), OverheadCounters(), OverheadCounters()
    a = DBVVProtocolNode(0, 2, ITEMS, counters=ca)
    b = DBVVProtocolNode(1, 2, ITEMS, counters=cb)
    return a, b, SimulatedNetwork(2, counters=ct), ct


def make_networked_pair():
    a = DBVVProtocolNode(0, 2, ITEMS, counters=OverheadCounters())
    b = DBVVProtocolNode(1, 2, ITEMS, counters=OverheadCounters())
    return a, b, SimulatedNetwork(2, counters=OverheadCounters())


class TestSyncWith:
    def test_identical_replicas_report_identical(self):
        a, b, transport, _ = make_pair()
        stats = a.sync_with(b, transport)
        assert stats.identical
        assert stats.items_transferred == 0
        assert stats.messages == 2

    def test_transfer_counts_adopted_items(self):
        a, b, transport, _ = make_pair()
        b.user_update("x", Put(b"v"))
        stats = a.sync_with(b, transport)
        assert not stats.identical
        assert stats.items_transferred == 1
        assert a.read("x") == b"v"

    def test_traffic_charged_to_transport(self):
        a, b, transport, counters = make_pair()
        b.user_update("x", Put(b"v"))
        a.sync_with(b, transport)
        assert counters.messages_sent == 2
        assert counters.bytes_sent > 0

    def test_conflicts_surface_in_stats(self):
        a, b, transport, _ = make_pair()
        a.user_update("x", Put(b"a"))
        b.user_update("x", Put(b"b"))
        stats = a.sync_with(b, transport)
        assert stats.conflicts == 1
        assert a.conflict_count() == 1

    def test_cross_protocol_sync_rejected(self):
        a, _b, transport, _ = make_pair()
        lotus = LotusNode(1, 2, ITEMS)
        with pytest.raises(TypeError):
            a.sync_with(lotus, transport)

    def test_state_fingerprint_reports_regular_copies(self):
        a, b, transport, _ = make_pair()
        b.user_update("x", Put(b"v"))
        a.fetch_out_of_bound("x", b, transport)
        # The OOB copy is auxiliary — the durable fingerprint is still
        # the (empty) regular copy until scheduled propagation runs.
        assert a.state_fingerprint()["x"] == b""
        a.sync_with(b, transport)
        assert a.state_fingerprint()["x"] == b"v"


class TestSyncWithUnderFaults:
    def test_lost_request_aborts_in_request_sent_phase(self):
        a, b, net = make_networked_pair()
        b.user_update("x", Put(b"v"))
        net.arm_message_drop(nth_message=1)
        stats = a.sync_with(b, net)
        assert stats.failed
        assert stats.aborted_phase is SessionPhase.REQUEST_SENT
        assert stats.messages == 1          # the lost request left a
        assert stats.bytes_sent > 0         # and its bytes are charged
        assert a.read("x") == b""           # nothing adopted
        a.check_invariants()
        b.check_invariants()

    def test_lost_reply_aborts_in_reply_in_flight_phase(self):
        a, b, net = make_networked_pair()
        b.user_update("x", Put(b"v"))
        net.arm_message_drop(nth_message=2)
        stats = a.sync_with(b, net)
        assert stats.failed
        assert stats.aborted_phase is SessionPhase.REPLY_IN_FLIGHT
        assert stats.messages == 2
        assert a.read("x") == b""           # reply lost: no adoption
        a.check_invariants()
        b.check_invariants()

    def test_crashed_peer_aborts_without_raising(self):
        a, b, net = make_networked_pair()
        net.set_down(1)
        stats = a.sync_with(b, net)
        assert stats.failed
        # The phase machine had advanced to request-sent, but the dead
        # endpoint was caught at connect time: no message moved.
        assert stats.messages == 0

    def test_aborted_session_recovers_on_retry(self):
        a, b, net = make_networked_pair()
        b.user_update("x", Put(b"v"))
        net.arm_message_drop(nth_message=2)
        assert a.sync_with(b, net).failed
        stats = a.sync_with(b, net)         # plain re-run succeeds
        assert not stats.failed
        assert a.read("x") == b"v"
        a.check_invariants()


class TestFetchOutOfBound:
    def test_fetch_installs_auxiliary_and_serves_reads(self):
        a, b, transport, _ = make_pair()
        b.user_update("x", Put(b"fresh"))
        assert a.fetch_out_of_bound("x", b, transport)
        assert a.read("x") == b"fresh"

    def test_fetch_of_stale_copy_returns_false(self):
        a, b, transport, _ = make_pair()
        a.user_update("x", Put(b"mine"))
        assert not a.fetch_out_of_bound("x", b, transport)

    def test_invariant_check_passes_through(self):
        a, b, transport, _ = make_pair()
        b.user_update("x", Put(b"v"))
        a.sync_with(b, transport)
        a.check_invariants()
        b.check_invariants()

    def test_fetch_survives_lost_request(self):
        """Regression: under a lossy network the fetch used to catch
        only NodeDownError, so a MessageLostError escaped into whatever
        user operation triggered the fetch."""
        a, b, net = make_networked_pair()
        b.user_update("x", Put(b"fresh"))
        net.arm_message_drop(nth_message=1)
        assert a.fetch_out_of_bound("x", b, net) is False
        assert a.read("x") == b""

    def test_fetch_survives_lost_reply(self):
        a, b, net = make_networked_pair()
        b.user_update("x", Put(b"fresh"))
        net.arm_message_drop(nth_message=2)
        assert a.fetch_out_of_bound("x", b, net) is False
        # And the very next fetch works.
        assert a.fetch_out_of_bound("x", b, net) is True
        assert a.read("x") == b"fresh"

    def test_fetch_survives_dead_peer(self):
        a, b, net = make_networked_pair()
        b.user_update("x", Put(b"fresh"))
        net.set_down(1)
        assert a.fetch_out_of_bound("x", b, net) is False
