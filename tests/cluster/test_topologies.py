"""Tests for the topology helpers, including end-to-end convergence
over each shape (Theorem 5 over structured connectivity)."""

import random

import pytest

from repro.cluster import topologies
from repro.cluster.scheduler import TopologySelector
from repro.cluster.simulation import ClusterSimulation
from repro.experiments.common import make_factory, make_items
from repro.substrate.operations import Put

ITEMS = make_items(10)

#: A complete binary tree of depth 2 (headquarters → regions → offices).
TREE = TopologySelector([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
#: The 3-cube: every one of its 8 nodes has exactly three neighbors.
CUBE = TopologySelector(
    (a, a ^ bit) for a in range(8) for bit in (1, 2, 4) if a < a ^ bit
)


def edge_count(selector):
    return sum(map(len, selector.neighbors.values())) // 2


class TestConstruction:
    def test_ring_neighbors(self):
        selector = topologies.ring(5)
        rng = random.Random(0)
        picks = {selector.peer_for(0, 5, r, rng) for r in range(50)}
        assert picks == {1, 4}

    def test_line_endpoints_have_one_neighbor(self):
        selector = topologies.line(4)
        rng = random.Random(0)
        assert {selector.peer_for(0, 4, r, rng) for r in range(20)} == {1}
        assert {selector.peer_for(3, 4, r, rng) for r in range(20)} == {2}

    def test_grid_degree(self):
        selector = topologies.grid(3, 3)
        assert len(selector.neighbors) == 9
        # Center node of a 3x3 grid has 4 neighbors.
        degrees = sorted(map(len, selector.neighbors.values()))
        assert degrees == [2, 2, 2, 2, 3, 3, 3, 3, 4]

    def test_small_world_adds_chords(self):
        base_edges = edge_count(topologies.ring(20))
        chorded = topologies.small_world(20, chords=5, seed=1)
        assert edge_count(chorded) == base_edges + 5

    def test_small_world_deterministic_by_seed(self):
        a = topologies.small_world(20, chords=5, seed=1)
        b = topologies.small_world(20, chords=5, seed=1)
        assert a.neighbors == b.neighbors

    def test_validation(self):
        with pytest.raises(ValueError):
            topologies.ring(2)
        with pytest.raises(ValueError):
            topologies.grid(1, 1)
        # A 4-ring has room for 2 chords, a 5-ring for 5: asking for
        # more is refused, never silently cut short.
        with pytest.raises(ValueError):
            topologies.small_world(4, chords=5)
        with pytest.raises(ValueError):
            topologies.small_world(5, chords=6)
        assert edge_count(topologies.small_world(5, chords=5)) == 10


class TestConvergenceOverTopologies:
    @pytest.mark.parametrize(
        "selector,n_nodes",
        [
            (topologies.ring(6), 6),
            (topologies.line(6), 6),
            (topologies.grid(2, 3), 6),
            (TREE, 7),
            (topologies.small_world(8, chords=3, seed=3), 8),
            (CUBE, 8),
        ],
        ids=["ring", "line", "grid", "tree", "small-world", "regular"],
    )
    def test_theorem5_holds(self, selector, n_nodes):
        sim = ClusterSimulation(
            make_factory("dbvv", n_nodes, ITEMS), n_nodes, ITEMS,
            selector=selector, seed=5,
        )
        sim.apply_update(0, ITEMS[0], Put(b"spread-me"))
        sim.apply_update(n_nodes - 1, ITEMS[1], Put(b"and-me"))
        sim.run_until_converged(max_rounds=40 * n_nodes)
        assert sim.ground_truth.fully_current(sim.nodes)
        assert sim.total_conflicts() == 0

    def test_diameter_orders_convergence(self):
        """The line (diameter n-1) converges slower than the small
        world (short chords) for the same node count, on average."""
        def rounds_for(selector, seed):
            sim = ClusterSimulation(
                make_factory("dbvv", 12, ITEMS), 12, ITEMS,
                selector=selector, seed=seed,
            )
            sim.apply_update(0, ITEMS[0], Put(b"v"))
            return sim.run_until_converged(max_rounds=600)

        line_rounds = sum(rounds_for(topologies.line(12), s) for s in range(3))
        sw_rounds = sum(
            rounds_for(topologies.small_world(12, chords=6, seed=9), s)
            for s in range(3)
        )
        assert sw_rounds < line_rounds
