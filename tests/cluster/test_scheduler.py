"""Unit tests for peer-selection policies."""

import random

import pytest

from repro.cluster.scheduler import (
    RandomSelector,
    RingSelector,
    StarSelector,
    TopologySelector,
)


class TestRandomSelector:
    def test_never_selects_self(self):
        selector = RandomSelector()
        rng = random.Random(0)
        for node in range(5):
            for round_no in range(50):
                peer = selector.peer_for(node, 5, round_no, rng)
                assert peer != node
                assert 0 <= peer < 5

    def test_covers_all_peers_eventually(self):
        selector = RandomSelector()
        rng = random.Random(1)
        seen = {selector.peer_for(0, 6, r, rng) for r in range(200)}
        assert seen == {1, 2, 3, 4, 5}

    def test_two_node_degenerate_case(self):
        selector = RandomSelector()
        rng = random.Random(0)
        assert selector.peer_for(0, 2, 0, rng) == 1
        assert selector.peer_for(1, 2, 0, rng) == 0

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            RandomSelector().peer_for(0, 1, 0, random.Random(0))


class TestRingSelector:
    def test_pulls_from_predecessor(self):
        selector = RingSelector()
        rng = random.Random(0)
        assert selector.peer_for(2, 5, 0, rng) == 1
        assert selector.peer_for(0, 5, 0, rng) == 4

    def test_is_deterministic(self):
        selector = RingSelector()
        rng = random.Random(0)
        picks = [selector.peer_for(3, 6, r, rng) for r in range(5)]
        assert picks == [2] * 5


class TestStarSelector:
    def test_spokes_pull_from_hub(self):
        selector = StarSelector(hub=0)
        rng = random.Random(0)
        for node in (1, 2, 3):
            assert selector.peer_for(node, 4, 7, rng) == 0

    def test_hub_rotates_spokes(self):
        selector = StarSelector(hub=0)
        rng = random.Random(0)
        picks = [selector.peer_for(0, 4, r, rng) for r in range(6)]
        assert picks == [1, 2, 3, 1, 2, 3]

    def test_hub_outside_set_rejected(self):
        with pytest.raises(ValueError):
            StarSelector(hub=9).peer_for(0, 4, 0, random.Random(0))

    def test_describe_names_hub(self):
        assert "hub=2" in StarSelector(hub=2).describe()


class TestTopologySelector:
    def test_selects_only_neighbors(self):
        selector = TopologySelector([(0, 1), (1, 2), (2, 3)])
        rng = random.Random(0)
        for _ in range(50):
            assert selector.peer_for(0, 4, 0, rng) == 1
            assert selector.peer_for(1, 4, 0, rng) in (0, 2)

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ValueError):
            TopologySelector([(0, 1), (2, 3)])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            TopologySelector([])

    def test_self_loop_rejected(self):
        # A self-loop would let peer_for hand a node itself.
        with pytest.raises(ValueError):
            TopologySelector([(0, 0), (0, 1)])

    def test_node_outside_graph_rejected(self):
        selector = TopologySelector([(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ValueError):
            selector.peer_for(7, 8, 0, random.Random(0))

    def test_describe_reports_shape(self):
        selector = TopologySelector((k, (k + 1) % 5) for k in range(5))
        assert "nodes=5" in selector.describe()
        assert "edges=5" in selector.describe()
