"""Tests for the protocol-neutral interface layer."""

import pytest

from repro.cluster.network import SimulatedNetwork
from repro.interfaces import ProtocolNode, SyncStats
from repro.substrate.operations import Put


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

        def state_digest(self):
            return 0

        def fingerprint_value(self, item):
            return b""

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

    @pytest.mark.parametrize("hook", ["state_digest", "fingerprint_value"])
    def test_every_node_states_its_version_and_values(self, hook):
        """No fallback stands in for a node without a digest or an
        O(1) value probe: leaving either out is a TypeError."""
        partial = type(
            "Partial", (self._Minimal,), {hook: ProtocolNode.__dict__[hook]}
        )
        with pytest.raises(TypeError):
            partial(0, 2)


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
        stats = a.sync_with(b, SimulatedNetwork(2))
        assert stats.items_transferred == 1
        assert stats.messages == 2
