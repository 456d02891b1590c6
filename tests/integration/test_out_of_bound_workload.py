"""Integration: out-of-bound copying mixed into a live cluster.

The paper's target usage: scheduled anti-entropy as the backbone, with
occasional out-of-bound fetches of key items that must not disturb the
protocol's bookkeeping (sections 1, 5.2).  The stream of OOB requests
interleaves with updates and rounds; at the end, everything converges,
auxiliary state drains, and no conflicts appear for the conflict-free
workload.
"""

import random

from repro.cluster.simulation import ClusterSimulation
from repro.core.protocol import DBVVProtocolNode
from repro.experiments.common import make_factory, make_items
from repro.substrate.operations import Append
from repro.workload.generators import SingleWriterWorkload

ITEMS = make_items(40)


def test_mixed_oob_and_scheduled_propagation_converges():
    n_nodes = 4
    sim = ClusterSimulation(make_factory("dbvv", n_nodes, ITEMS), n_nodes, ITEMS, seed=6)
    workload = SingleWriterWorkload(ITEMS, n_nodes, seed=6)
    # Users demanding fresh copies of the five hot items from a peer:
    # (requesting node, item, source node).
    rng = random.Random(6)
    oob_requests = []
    for _ in range(30):
        node_id = rng.randrange(n_nodes)
        source_id = (node_id + 1 + rng.randrange(n_nodes - 1)) % n_nodes
        oob_requests.append((node_id, ITEMS[rng.randrange(5)], source_id))

    events = workload.generate(120)
    for step, event in enumerate(events):
        sim.apply_update(event.node, event.item, event.op)
        if step % 4 == 0:
            sim.run_round()
        if step % 7 == 0 and oob_requests:
            node_id, item, source_id = oob_requests.pop()
            node = sim.nodes[node_id]
            source = sim.nodes[source_id]
            assert isinstance(node, DBVVProtocolNode)
            node.fetch_out_of_bound(item, source, sim.network)

    sim.run_until_converged(max_rounds=100)
    assert sim.ground_truth.fully_current(sim.nodes)
    assert sim.total_conflicts() == 0
    for node in sim.nodes:
        assert isinstance(node, DBVVProtocolNode)
        node.check_invariants()
        # All auxiliary state has drained.
        assert len(node.node.aux_log) == 0
        assert all(not entry.has_auxiliary for entry in node.node.store)


def test_oob_never_regresses_user_visible_reads():
    """A user watching an item through OOB fetches sees values move
    only forward along the single-writer history."""
    n_nodes = 3
    sim = ClusterSimulation(make_factory("dbvv", n_nodes, ITEMS), n_nodes, ITEMS, seed=8)
    hot = ITEMS[0]
    writer = 0
    watcher = sim.nodes[2]
    assert isinstance(watcher, DBVVProtocolNode)
    seen = []
    for step in range(15):
        sim.apply_update(writer, hot, Append(f"{step};".encode()))
        if step % 2 == 0:
            watcher.fetch_out_of_bound(hot, sim.nodes[0], sim.network)
        if step % 3 == 0:
            sim.run_round()
        seen.append(watcher.read(hot))
    for earlier, later in zip(seen, seen[1:]):
        assert later.startswith(earlier)
