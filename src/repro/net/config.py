"""Configuration for one networked epidemic node.

A deployment is described by a static seed list: every process knows
the full replica set up front (``id@host:port`` per peer), mirroring
the paper's setting of a known replica set with an open schedule.
The replica set is fixed for the deployment's lifetime (paper
section 2): ``n_nodes`` is the size of the ``--peers`` list.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

__all__ = ["PeerAddress", "NodeConfig", "parse_peer", "parse_peers"]


@dataclass(frozen=True)
class PeerAddress:
    """Where one replica's *peer listener* accepts anti-entropy."""

    node_id: int
    host: str
    port: int


def parse_peer(spec: str) -> PeerAddress:
    """Parse one ``id@host:port`` seed-list entry."""
    try:
        id_part, addr = spec.split("@", 1)
        host, port_part = addr.rsplit(":", 1)
        node_id = int(id_part)
        port = int(port_part)
    except ValueError:
        raise SimulationError(
            f"malformed peer spec {spec!r}: expected id@host:port"
        ) from None
    if node_id < 0:
        raise SimulationError(f"peer spec {spec!r}: node id must be >= 0")
    if not host:
        raise SimulationError(f"peer spec {spec!r}: empty host")
    if not 0 < port < 65536:
        raise SimulationError(f"peer spec {spec!r}: port out of range")
    return PeerAddress(node_id, host, port)


def parse_peers(specs: list[str] | tuple[str, ...]) -> tuple[PeerAddress, ...]:
    """Parse a seed list; duplicate node ids are configuration errors."""
    peers = tuple(parse_peer(spec) for spec in specs)
    seen: set[int] = set()
    for peer in peers:
        if peer.node_id in seen:
            raise SimulationError(
                f"duplicate node id {peer.node_id} in peer seed list"
            )
        seen.add(peer.node_id)
    return peers


@dataclass(frozen=True)
class NodeConfig:
    """Everything one ``repro.net`` process needs to run.

    ``peers`` lists every *other* replica's peer listener; together with
    this node they must form the contiguous id range ``0..n_nodes-1``
    (version vectors are dense arrays indexed by node id).
    ``anti_entropy_period`` of 0 disables the background scheduler —
    the parity harness drives sessions explicitly through the client
    API instead, so the schedule is exactly reproducible.
    """

    node_id: int
    items: tuple[str, ...]
    host: str = "127.0.0.1"
    peer_port: int = 0
    client_port: int = 0
    peers: tuple[PeerAddress, ...] = ()
    anti_entropy_period: float = 0.0
    seed: int = 0
    reconnect_attempts: int = 1
    #: Directory for the durable journal (checkpoint + WAL).  ``None``
    #: runs in-memory only; a path makes every accepted update durable
    #: and has the node recover from disk on restart (repro.durable).
    data_dir: str | None = None

    def __post_init__(self) -> None:
        ids = sorted(peer.node_id for peer in self.peers)
        expected = [k for k in range(self.n_nodes) if k != self.node_id]
        if ids != expected:
            raise SimulationError(
                f"peer seed list ids {ids} + local id {self.node_id} must "
                f"cover 0..{self.n_nodes - 1} exactly once"
            )
        if self.anti_entropy_period < 0:
            raise SimulationError("anti_entropy_period must be >= 0")
        if self.reconnect_attempts < 0:
            raise SimulationError("reconnect_attempts must be >= 0")

    @property
    def n_nodes(self) -> int:
        return len(self.peers) + 1

    def address_of(self, node_id: int) -> PeerAddress:
        for peer in self.peers:
            if peer.node_id == node_id:
                return peer
        raise SimulationError(f"node {node_id} is not in the peer seed list")
