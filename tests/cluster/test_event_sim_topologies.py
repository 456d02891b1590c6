"""Event-driven simulation over structured topologies.

Crosses two features the focused tests exercise separately: per-node
asynchronous schedules and restricted-connectivity peer selection.
"""

from repro.cluster import topologies
from repro.cluster.event_sim import EventDrivenSimulation, NodeSchedule
from repro.cluster.scheduler import TopologySelector
from repro.experiments.common import make_factory, make_items
from repro.substrate.operations import Put

ITEMS = make_items(15)


def make_sim(selector, n_nodes, seed=7, period=3.0):
    return EventDrivenSimulation(
        make_factory("dbvv", n_nodes, ITEMS),
        n_nodes,
        ITEMS,
        selector=selector,
        schedules=[NodeSchedule(period=period, jitter=0.2)] * n_nodes,
        seed=seed,
    )


class TestTopologiesInEventTime:
    def test_line_topology_converges_asynchronously(self):
        sim = make_sim(topologies.line(5), 5)
        sim.schedule_update(1.0, 0, ITEMS[0], Put(b"end-to-end"))
        converged_at = sim.run_until_converged(deadline=2_000.0)
        assert sim.nodes[4].read(ITEMS[0]) == b"end-to-end"
        assert converged_at > 0

    def test_small_world_beats_line_end_to_end(self):
        def time_for(selector, n_nodes):
            sim = make_sim(selector, n_nodes, seed=9)
            sim.schedule_update(1.0, 0, ITEMS[0], Put(b"v"))
            return sim.run_until_converged(deadline=5_000.0)

        line_time = time_for(topologies.line(10), 10)
        sw_time = time_for(topologies.small_world(10, chords=5, seed=2), 10)
        assert sw_time <= line_time

    def test_tree_topology_with_heterogeneous_periods(self):
        """Root syncs often, leaves rarely — still converges."""
        # A complete binary tree of depth 2: 7 nodes, root 0.
        selector = TopologySelector(
            [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
        )
        schedules = [NodeSchedule(period=2.0, jitter=0.1)] + [
            NodeSchedule(period=8.0, jitter=0.1)
        ] * 6
        sim = EventDrivenSimulation(
            make_factory("dbvv", 7, ITEMS), 7, ITEMS,
            selector=selector, schedules=schedules, seed=11,
        )
        sim.schedule_update(1.0, 6, ITEMS[2], Put(b"leaf-update"))
        sim.run_until_converged(deadline=3_000.0)
        assert all(node.read(ITEMS[2]) == b"leaf-update" for node in sim.nodes)
        assert sim.ground_truth.fully_current(sim.nodes)
