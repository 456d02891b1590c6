"""Anti-entropy scheduling: who syncs with whom, each round.

The paper requires only that "every node eventually performs update
propagation transitively from every other node" (Theorem 5) and leaves
the schedule open — that freedom is a feature of epidemic systems
(dial-up sessions, convenient times).  The simulator therefore takes a
pluggable :class:`PeerSelector`; the provided policies cover the
standard epidemic literature shapes:

* :class:`RandomSelector` — classic rumor-mongering: each node pulls
  from a uniformly random other node (expected O(log n) rounds to
  converge).
* :class:`RingSelector` — deterministic ring: node i pulls from i-1;
  worst-case n-1 rounds, but minimal connections (a nightly dial-up
  chain).
* :class:`StarSelector` — hub-and-spoke: everyone pulls from the hub,
  the hub pulls from a rotating spoke.
* :class:`TopologySelector` — pull from a random neighbor in an
  arbitrary connected graph, given as an edge list, for experiments on
  restricted connectivity.

Every selector satisfies Theorem 5's premise on connected topologies,
so correctness holds for all of them; they differ in rounds-to-converge
and traffic, which experiment E7 measures.
"""

from __future__ import annotations

import abc
import random
from typing import Iterable

__all__ = [
    "PeerSelector",
    "RandomSelector",
    "RingSelector",
    "StarSelector",
    "TopologySelector",
]


class PeerSelector(abc.ABC):
    """Chooses, for each node and round, the peer it pulls from."""

    @abc.abstractmethod
    def peer_for(self, node: int, n_nodes: int, round_no: int, rng: random.Random) -> int:
        """The peer ``node`` synchronizes with in round ``round_no``.

        Must return an id != ``node``; the simulator passes its own
        deterministic ``rng`` so runs reproduce from a seed.
        """

    def describe(self) -> str:
        """Human-readable policy name for experiment tables."""
        return type(self).__name__


class RandomSelector(PeerSelector):
    """Uniformly random peer — the classic epidemic pull."""

    def peer_for(self, node: int, n_nodes: int, round_no: int, rng: random.Random) -> int:
        if n_nodes < 2:
            raise ValueError("need at least two nodes to select a peer")
        peer = rng.randrange(n_nodes - 1)
        return peer if peer < node else peer + 1


class RingSelector(PeerSelector):
    """Node ``i`` always pulls from ``(i - 1) mod n``.

    Updates travel the ring one hop per round; convergence takes up to
    ``n - 1`` rounds but every round uses exactly ``n`` sessions over
    fixed links.
    """

    def peer_for(self, node: int, n_nodes: int, round_no: int, rng: random.Random) -> int:
        if n_nodes < 2:
            raise ValueError("need at least two nodes to select a peer")
        return (node - 1) % n_nodes


class StarSelector(PeerSelector):
    """Spokes pull from the hub; the hub pulls from spokes round-robin."""

    def __init__(self, hub: int = 0):
        self.hub = hub

    def peer_for(self, node: int, n_nodes: int, round_no: int, rng: random.Random) -> int:
        if n_nodes < 2:
            raise ValueError("need at least two nodes to select a peer")
        if self.hub >= n_nodes:
            raise ValueError(f"hub {self.hub} outside replica set")
        if node != self.hub:
            return self.hub
        spokes = [k for k in range(n_nodes) if k != self.hub]
        return spokes[round_no % len(spokes)]

    def describe(self) -> str:
        return f"StarSelector(hub={self.hub})"


class TopologySelector(PeerSelector):
    """Pull from a uniformly random neighbor in a fixed undirected graph.

    The graph is given as ``(a, b)`` edges; it must be connected and
    cover node ids ``0..n-1``.  Theorem 5 then guarantees convergence
    (transitive coverage over any connected topology).
    """

    def __init__(self, edges: Iterable[tuple[int, int]]):
        adjacent: dict[int, set[int]] = {}
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at node {a}: a node never pulls from itself")
            adjacent.setdefault(a, set()).add(b)
            adjacent.setdefault(b, set()).add(a)
        if not adjacent:
            raise ValueError("empty topology graph")
        reached = {min(adjacent)}
        frontier = list(reached)
        while frontier:
            for neighbor in adjacent[frontier.pop()] - reached:
                reached.add(neighbor)
                frontier.append(neighbor)
        if len(reached) != len(adjacent):
            raise ValueError(
                "topology must be connected or Theorem 5's premise fails "
                "and replicas in different components never reconcile"
            )
        self.neighbors = {node: sorted(adjacent[node]) for node in sorted(adjacent)}

    def peer_for(self, node: int, n_nodes: int, round_no: int, rng: random.Random) -> int:
        if node not in self.neighbors:
            raise ValueError(f"node {node} not in topology graph")
        neighbors = self.neighbors[node]
        return neighbors[rng.randrange(len(neighbors))]

    def describe(self) -> str:
        edges = sum(map(len, self.neighbors.values())) // 2
        return f"TopologySelector(nodes={len(self.neighbors)}, edges={edges})"
