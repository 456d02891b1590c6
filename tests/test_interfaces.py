"""Tests for the protocol-neutral interface layer."""

import pytest

from repro.interfaces import (
    DIRECT_TRANSPORT,
    DirectTransport,
    ProtocolNode,
    SyncStats,
    Transport,
)
from repro.core.messages import YouAreCurrent
from repro.obs import OverheadCounters
from repro.substrate.operations import Put


class TestDirectTransport:
    def test_delivers_identity_and_counts(self):
        counters = OverheadCounters()
        transport = DirectTransport(counters)
        message = YouAreCurrent(0)
        assert transport.deliver(0, 1, message) is message
        assert counters.messages_sent == 1
        assert counters.bytes_sent == message.wire_size()

    def test_shared_instance_is_uncounted(self):
        DIRECT_TRANSPORT.deliver(0, 1, YouAreCurrent(0))  # must not raise

    def test_satisfies_transport_protocol(self):
        assert isinstance(DirectTransport(), Transport)


class TestProtocolNodeBase:
    class _Minimal(ProtocolNode):
        protocol_name = "minimal"

        def user_update(self, item, op):
            pass

        def read(self, item):
            return b""

        def exchange(self, peer, transport, stats):
            stats.identical = True

        def state_fingerprint(self):
            return {}

    def test_node_id_bounds_checked(self):
        with pytest.raises(ValueError):
            self._Minimal(5, 3)
        with pytest.raises(ValueError):
            self._Minimal(-1, 3)

    def test_default_conflict_count_is_zero(self):
        node = self._Minimal(0, 2)
        assert node.conflict_count() == 0

    def test_repr_shows_identity(self):
        assert "0/2" in repr(self._Minimal(0, 2))

    def test_abstract_base_cannot_instantiate(self):
        with pytest.raises(TypeError):
            ProtocolNode(0, 2)  # type: ignore[abstract]


class TestSyncStats:
    def test_defaults(self):
        stats = SyncStats()
        assert not stats.identical
        assert not stats.failed
        assert stats.items_transferred == 0

    def test_real_protocols_fill_stats(self):
        from repro.core.protocol import DBVVProtocolNode

        a = DBVVProtocolNode(0, 2, ["x"])
        b = DBVVProtocolNode(1, 2, ["x"])
        b.user_update("x", Put(b"v"))
        stats = a.sync_with(b, DirectTransport())
        assert stats.items_transferred == 1
        assert stats.messages == 2
