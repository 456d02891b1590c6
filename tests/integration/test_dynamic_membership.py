"""Tests for the dynamic-membership extension.

The paper fixes the replica set "to simplify the presentation"
(section 2); this extension grows it: every existing replica's vectors
and logs gain zero components for the newcomer, and the newcomer — an
all-zero replica — catches up through perfectly ordinary update
propagation.
"""

import pytest

from repro.cluster.simulation import ClusterSimulation
from repro.core.delta import DeltaEpidemicNode
from repro.core.node import EpidemicNode
from repro.core.protocol import DBVVProtocolNode
from repro.core.version_vector import Ordering, VersionVector
from repro.experiments.common import make_factory, make_items
from repro.substrate.operations import Append, Put

ITEMS = make_items(15)


class TestVectorExtension:
    def test_extend_appends_zeros(self):
        vv = VersionVector.from_counts([3, 1])
        vv.extend_to(4)
        assert vv.as_tuple() == (3, 1, 0, 0)

    def test_extend_to_same_size_is_noop(self):
        vv = VersionVector.from_counts([3, 1])
        vv.extend_to(2)
        assert vv.as_tuple() == (3, 1)

    def test_shrinking_rejected(self):
        with pytest.raises(ValueError):
            VersionVector.from_counts([1, 2, 3]).extend_to(2)

    def test_extension_preserves_ordering(self):
        a = VersionVector.from_counts([2, 1])
        b = VersionVector.from_counts([1, 1])
        a.extend_to(3)
        b.extend_to(3)
        assert a.compare(b) is Ordering.DOMINATES


class TestNodeExpansion:
    def test_expand_grows_all_structures(self):
        node = EpidemicNode(0, 2, ITEMS)
        node.update(ITEMS[0], Put(b"v"))
        node.expand_replica_set(3)
        assert node.n_nodes == 3
        assert node.dbvv.as_tuple() == (1, 0, 0)
        assert node.store[ITEMS[0]].ivv.as_tuple() == (1, 0, 0)
        assert node.log.n_nodes == 3
        node.check_invariants()

    def test_expand_preserves_aux_state(self):
        a = EpidemicNode(0, 2, ITEMS)
        b = EpidemicNode(1, 2, ITEMS)
        a.update(ITEMS[0], Put(b"base"))
        b.copy_out_of_bound(ITEMS[0], a)
        b.update(ITEMS[0], Append(b"+b"))
        for node in (a, b):
            node.expand_replica_set(3)
        assert b.store[ITEMS[0]].aux_ivv.as_tuple() == (1, 1, 0)
        assert b.aux_log.earliest(ITEMS[0]).pre_ivv.as_tuple() == (1, 0, 0)
        # The deferred update still replays after expansion.
        _, intra = b.pull_from(a)
        assert intra.replayed == 1
        assert b.read(ITEMS[0]) == b"base+b"
        b.check_invariants()

    def test_shrink_rejected(self):
        node = EpidemicNode(0, 3, ITEMS)
        with pytest.raises(ValueError):
            node.expand_replica_set(2)

    def test_newcomer_catches_up_via_normal_propagation(self):
        a = EpidemicNode(0, 2, ITEMS)
        b = EpidemicNode(1, 2, ITEMS)
        for k in range(5):
            a.update(ITEMS[k], Put(f"v{k}".encode()))
        b.pull_from(a)
        for node in (a, b):
            node.expand_replica_set(3)
        newcomer = EpidemicNode(2, 3, ITEMS)
        outcome, _ = newcomer.pull_from(a)
        assert len(outcome.adopted) == 5
        assert newcomer.state_fingerprint() == a.state_fingerprint()
        newcomer.check_invariants()

    def test_newcomer_updates_propagate_back(self):
        a = EpidemicNode(0, 1, ITEMS)
        a.update(ITEMS[0], Put(b"old-world"))
        a.expand_replica_set(2)
        newcomer = EpidemicNode(1, 2, ITEMS)
        newcomer.pull_from(a)
        newcomer.update(ITEMS[1], Put(b"from-newcomer"))
        outcome, _ = a.pull_from(newcomer)
        assert outcome.adopted == [ITEMS[1]]
        assert a.read(ITEMS[1]) == b"from-newcomer"
        a.check_invariants()

    def test_delta_mode_expands_histories(self):
        a = DeltaEpidemicNode(0, 2, ITEMS)
        b = DeltaEpidemicNode(1, 2, ITEMS)
        a.update(ITEMS[0], Put(b"v"))
        b.pull_from(a)
        for node in (a, b):
            node.expand_replica_set(3)
        newcomer = DeltaEpidemicNode(2, 3, ITEMS)
        newcomer.pull_from(a)
        assert newcomer.read(ITEMS[0]) == b"v"
        assert a._histories[ITEMS[0]].floor == (0, 0, 0)


class TestClusterGrowth:
    def test_add_node_to_running_cluster(self):
        sim = ClusterSimulation(make_factory("dbvv", 3, ITEMS), 3, ITEMS, seed=4)
        for k in range(3):
            sim.apply_update(k, ITEMS[k], Put(f"v{k}".encode()))
        sim.run_until_converged(max_rounds=50)

        new_id = sim.add_node(
            lambda node_id, counters, n: DBVVProtocolNode(
                node_id, n, ITEMS, counters=counters
            )
        )
        assert new_id == 3
        assert sim.n_nodes == 4
        assert not sim.converged()  # the newcomer is behind
        sim.run_until_converged(max_rounds=60)
        assert sim.nodes[3].read(ITEMS[0]) == b"v0"
        assert sim.ground_truth.fully_current(sim.nodes)

    def test_newcomer_participates_in_workload(self):
        sim = ClusterSimulation(make_factory("dbvv", 2, ITEMS), 2, ITEMS, seed=5)
        sim.apply_update(0, ITEMS[0], Put(b"before"))
        sim.run_until_converged(max_rounds=30)
        new_id = sim.add_node(
            lambda node_id, counters, n: DBVVProtocolNode(
                node_id, n, ITEMS, counters=counters
            )
        )
        sim.apply_update(new_id, ITEMS[1], Put(b"from-newcomer"))
        sim.run_until_converged(max_rounds=60)
        assert all(node.read(ITEMS[1]) == b"from-newcomer" for node in sim.nodes)

    def test_baselines_reject_growth(self):
        sim = ClusterSimulation(make_factory("lotus", 2, ITEMS), 2, ITEMS, seed=6)
        with pytest.raises(TypeError):
            sim.add_node(lambda node_id, counters, n: None)

    def test_mismatched_build_rejected(self):
        sim = ClusterSimulation(make_factory("dbvv", 2, ITEMS), 2, ITEMS, seed=7)
        with pytest.raises(ValueError):
            sim.add_node(
                lambda node_id, counters, n: DBVVProtocolNode(0, n, ITEMS)
            )
