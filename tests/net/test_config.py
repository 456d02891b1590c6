"""Unit tests for the networked deployment configuration."""

import pytest

from repro.errors import SimulationError
from repro.net.config import NodeConfig, PeerAddress, parse_peer, parse_peers


class TestParsePeer:
    def test_parses_id_host_port(self):
        assert parse_peer("2@127.0.0.1:9000") == PeerAddress(2, "127.0.0.1", 9000)

    def test_ipv6_style_host_keeps_colons(self):
        # rsplit on the last colon: everything before it is the host.
        assert parse_peer("1@::1:9000") == PeerAddress(1, "::1", 9000)

    @pytest.mark.parametrize(
        "spec",
        [
            "nonsense",
            "1@host",          # no port
            "@host:1",         # no id
            "x@host:1",        # non-numeric id
            "1@host:x",        # non-numeric port
            "-1@host:9000",    # negative id
            "1@:9000",         # empty host
            "1@host:0",        # port out of range
            "1@host:70000",
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(SimulationError):
            parse_peer(spec)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SimulationError):
            parse_peers(["1@h:1", "1@h:2"])


class TestNodeConfig:
    def _peers(self, *ids):
        return tuple(PeerAddress(k, "127.0.0.1", 9000 + k) for k in ids)

    def test_contiguous_id_range_required(self):
        config = NodeConfig(node_id=1, items=("a",), peers=self._peers(0, 2))
        assert config.n_nodes == 3
        assert sorted(peer.node_id for peer in config.peers) == [0, 2]

    def test_gap_in_ids_rejected(self):
        with pytest.raises(SimulationError):
            NodeConfig(node_id=0, items=("a",), peers=self._peers(2))

    def test_own_id_in_peer_list_rejected(self):
        with pytest.raises(SimulationError):
            NodeConfig(node_id=0, items=("a",), peers=self._peers(0, 1))

    def test_negative_period_rejected(self):
        with pytest.raises(SimulationError):
            NodeConfig(
                node_id=0,
                items=("a",),
                peers=self._peers(1),
                anti_entropy_period=-1.0,
            )

    def test_address_lookup(self):
        config = NodeConfig(node_id=0, items=("a",), peers=self._peers(1, 2))
        assert config.address_of(2).port == 9002
        with pytest.raises(SimulationError):
            config.address_of(0)
