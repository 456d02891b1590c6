"""Integration: the epidemic protocol under adverse networks.

The epidemic design's selling point is robustness: sessions are
idempotent pulls, so lost messages and partitions cost only time — the
next scheduled session tries again.  These tests run the full stack
under heavy message loss and under partitions that later heal, and
require exact convergence to the ground truth afterwards.
"""

import random

import pytest

from repro.cluster.failures import FailurePlan, HealEvent, PartitionEvent
from repro.cluster.network import SimulatedNetwork
from repro.cluster.simulation import ClusterSimulation
from repro.core.protocol import DBVVProtocolNode
from repro.errors import MessageLostError, NodeDownError
from repro.experiments.common import make_factory, make_items
from repro.substrate.operations import Put
from repro.workload.generators import SingleWriterWorkload

ITEMS = make_items(40)


class TestMessageLoss:
    @pytest.mark.parametrize("loss_rate", [0.1, 0.3, 0.6])
    def test_convergence_survives_heavy_loss(self, loss_rate):
        n_nodes = 4
        network = SimulatedNetwork(n_nodes)
        network.set_loss((loss_rate, random.Random(7)))
        nodes = [DBVVProtocolNode(k, n_nodes, ITEMS) for k in range(n_nodes)]
        workload = SingleWriterWorkload(ITEMS, n_nodes, seed=7)
        for event in workload.generate(60):
            nodes[event.node].user_update(event.item, event.op)
        selector_rng = random.Random(8)
        lost_sessions = 0
        for _round in range(200):
            for node_id in range(n_nodes):
                peer = selector_rng.randrange(n_nodes - 1)
                peer = peer if peer < node_id else peer + 1
                try:
                    stats = nodes[node_id].sync_with(nodes[peer], network)
                except (MessageLostError, NodeDownError):
                    continue
                lost_sessions += stats.failed
            if all(
                nodes[k].state_fingerprint() == nodes[0].state_fingerprint()
                for k in range(n_nodes)
            ):
                break
        else:
            pytest.fail(f"no convergence at loss rate {loss_rate}")
        assert lost_sessions > 0
        for node in nodes:
            node.check_invariants()

    def test_half_completed_session_is_harmless(self):
        """A reply lost after the request was delivered: the recipient
        adopted nothing, the source changed nothing — the protocol is
        stateless across sessions, so nothing needs cleanup."""
        a = DBVVProtocolNode(0, 2, ITEMS)
        b = DBVVProtocolNode(1, 2, ITEMS)
        b.user_update(ITEMS[0], Put(b"v"))
        # Simulate the loss by just... not delivering the reply; then a
        # full session succeeds from the same state.
        _ = b.node.send_propagation(a.node.make_propagation_request())
        stats = a.sync_with(b, SimulatedNetwork(2))
        assert stats.items_transferred == 1
        assert a.read(ITEMS[0]) == b"v"
        a.check_invariants()
        b.check_invariants()


class TestPartitions:
    def test_partitioned_halves_converge_internally_then_globally(self):
        plan = FailurePlan([
            PartitionEvent(groups=((0, 1), (2, 3)), at_round=1),
            HealEvent(at_round=15),
        ])
        sim = ClusterSimulation(
            make_factory("dbvv", 4, ITEMS), 4, ITEMS,
            failure_plan=plan, seed=9,
        )
        # Writers on both sides of the split (disjoint items: no
        # conflicts, just divergence).
        sim.apply_update(0, ITEMS[0], Put(b"west"))
        sim.apply_update(2, ITEMS[1], Put(b"east"))
        for _ in range(10):
            sim.run_round()
        # Inside the partition window: each side has its own update only.
        assert sim.nodes[1].read(ITEMS[0]) == b"west"
        assert sim.nodes[1].read(ITEMS[1]) == b""
        assert sim.nodes[3].read(ITEMS[1]) == b"east"
        assert sim.nodes[3].read(ITEMS[0]) == b""
        sim.run_until_converged(max_rounds=60)
        assert sim.ground_truth.fully_current(sim.nodes)
        assert sim.total_conflicts() == 0

    def test_conflicting_writes_across_partition_are_detected_after_heal(self):
        plan = FailurePlan([
            PartitionEvent(groups=((0, 1), (2, 3)), at_round=1),
            HealEvent(at_round=8),
        ])
        sim = ClusterSimulation(
            make_factory("dbvv", 4, ITEMS), 4, ITEMS,
            failure_plan=plan, seed=10,
        )
        sim.run_round()  # partition is now up
        sim.apply_update(0, ITEMS[5], Put(b"west-version"))
        sim.apply_update(2, ITEMS[5], Put(b"east-version"))
        for _ in range(30):
            sim.run_round()
        # Criterion C1 across a healed partition: the conflict surfaced.
        assert sim.total_conflicts() > 0
        values = {node.read(ITEMS[5]) for node in sim.nodes}
        assert b"west-version" in values and b"east-version" in values

    def test_staleness_is_bounded_by_partition_duration(self):
        plan = FailurePlan([
            PartitionEvent(groups=((0,), (1, 2)), at_round=1),
            HealEvent(at_round=12),
        ])
        sim = ClusterSimulation(
            make_factory("dbvv", 3, ITEMS), 3, ITEMS,
            failure_plan=plan, seed=11,
        )
        sim.apply_update(0, ITEMS[0], Put(b"isolated-write"))
        stale_by_round = []
        for _ in range(20):
            stats = sim.run_round()
            stale_by_round.append(stats.stale_pairs)
        # Stale throughout the partition (rounds 1..11), fresh soon after.
        assert all(s > 0 for s in stale_by_round[:11])
        assert stale_by_round[-1] == 0
