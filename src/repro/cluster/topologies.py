"""Standard anti-entropy topologies.

Epidemic deployments rarely have full connectivity — dial-up chains,
office hierarchies, WAN meshes.  This module builds the standard graph
shapes (as :class:`~repro.cluster.scheduler.TopologySelector` policies)
so experiments can sweep connectivity structure with one line:

* :func:`ring` / :func:`line` — minimal connectivity, O(n) diameter;
* :func:`grid` — 2-D torus-free lattice, O(√n) diameter;
* :func:`small_world` — a ring with random long-range chords
  (Watts–Strogatz flavored), O(log n) diameter with local wiring.

All take a seed where randomness is involved; Theorem 5 holds over any
of them (they are connected by construction), but rounds-to-converge
differ — that spread is the point.  Node ids are ``0..n-1``, matching
the simulator's.
"""

from __future__ import annotations

import random

from repro.cluster.scheduler import TopologySelector

__all__ = ["ring", "line", "grid", "small_world"]


def _ring_edges(n_nodes: int) -> set[tuple[int, int]]:
    # Each edge as (low, high), so a chord that is already an edge adds nothing.
    return {(k, k + 1) for k in range(n_nodes - 1)} | {(0, n_nodes - 1)}


def ring(n_nodes: int) -> TopologySelector:
    """A cycle: each node talks to its two ring neighbors."""
    if n_nodes < 3:
        raise ValueError(f"a ring needs >= 3 nodes, got {n_nodes}")
    return TopologySelector(_ring_edges(n_nodes))


def line(n_nodes: int) -> TopologySelector:
    """A path: the worst connected diameter, n-1 hops end to end."""
    if n_nodes < 2:
        raise ValueError(f"a line needs >= 2 nodes, got {n_nodes}")
    return TopologySelector((k, k + 1) for k in range(n_nodes - 1))


def grid(rows: int, cols: int) -> TopologySelector:
    """A rows×cols lattice (no wraparound); node ``r·cols + c`` sits at
    row r, column c."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError(f"grid {rows}x{cols} is too small")
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return TopologySelector(edges)


def small_world(n_nodes: int, chords: int, seed: int = 0) -> TopologySelector:
    """A ring plus ``chords`` random long-range edges."""
    if n_nodes < 4:
        raise ValueError(f"small world needs >= 4 nodes, got {n_nodes}")
    room = n_nodes * (n_nodes - 1) // 2 - n_nodes
    if chords > room:
        raise ValueError(
            f"a {n_nodes}-ring has room for {room} chords, {chords} asked"
        )
    rng = random.Random(seed)
    edges = _ring_edges(n_nodes)
    while len(edges) < n_nodes + chords:
        a = rng.randrange(n_nodes)
        b = rng.randrange(n_nodes)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return TopologySelector(edges)
