"""Unit tests for convergence checking and ground-truth staleness."""

from repro.cluster.convergence import GroundTruth, fingerprints_equal
from repro.cluster.network import SimulatedNetwork
from repro.core.protocol import DBVVProtocolNode
from repro.substrate.operations import Put

ITEMS = ("x", "y")


def make_nodes(n=3):
    return [DBVVProtocolNode(k, n, list(ITEMS)) for k in range(n)]


class TestFingerprints:
    def test_fresh_replicas_are_equal(self):
        assert fingerprints_equal(make_nodes())

    def test_diverged_replicas_detected(self):
        nodes = make_nodes()
        nodes[0].user_update("x", Put(b"v"))
        assert not fingerprints_equal(nodes)

    def test_single_node_is_trivially_converged(self):
        assert fingerprints_equal(make_nodes()[:1])
        assert fingerprints_equal([])


class TestGroundTruth:
    def test_apply_tracks_ideal_state(self):
        truth = GroundTruth(ITEMS)
        truth.apply("x", Put(b"v1"))
        truth.apply("x", Put(b"v2"))
        assert truth.value("x") == b"v2"
        assert truth.value("y") == b""

    def test_stale_pairs_counts_lagging_node_items(self):
        truth = GroundTruth(ITEMS)
        nodes = make_nodes(3)
        truth.apply("x", Put(b"v"))
        nodes[0].user_update("x", Put(b"v"))
        assert truth.stale_pairs(nodes) == 2  # nodes 1 and 2 lag on x
        assert not truth.fully_current(nodes)

    def test_observe_appends_samples(self):
        truth = GroundTruth(ITEMS)
        nodes = make_nodes(2)
        truth.apply("x", Put(b"v"))
        nodes[0].user_update("x", Put(b"v"))
        sample = truth.observe(3.0, nodes)
        assert sample.time == 3.0
        assert sample.stale_pairs == 1
        assert sample.stale_nodes == 1
        assert truth.samples == [sample]

    def test_fully_current_after_propagation(self):
        truth = GroundTruth(ITEMS)
        nodes = make_nodes(2)
        truth.apply("x", Put(b"v"))
        nodes[0].user_update("x", Put(b"v"))
        nodes[1].sync_with(nodes[0], SimulatedNetwork(2))
        assert truth.fully_current(nodes)
