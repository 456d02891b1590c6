"""Integration tests for the paper's correctness criteria (section 2.1).

C1 — inconsistent replicas of a data item are eventually detected.
C2 — update propagation never introduces new inconsistency: a replica
     acquires updates only from strictly newer copies.
C3 — every obsolete replica eventually catches up; once update activity
     stops, all replicas converge (Theorem 5, given transitive
     propagation coverage).

These run the full stack: protocol nodes inside the cluster simulation
over realistic workloads.
"""

import pytest

from repro.cluster.scheduler import RandomSelector, RingSelector, StarSelector, TopologySelector
from repro.cluster.simulation import ClusterSimulation
from repro.experiments.common import make_factory, make_items
from repro.substrate.operations import Put
from repro.workload.generators import SingleWriterWorkload
from tests.workloads import UniformWorkload
from repro.workload.traces import Trace


ITEMS = make_items(60)


def make_sim(n_nodes=5, seed=0, selector=None):
    return ClusterSimulation(
        make_factory("dbvv", n_nodes, ITEMS),
        n_nodes,
        ITEMS,
        selector=selector or RandomSelector(),
        seed=seed,
    )


class TestC1Detection:
    def test_every_conflicting_item_is_eventually_flagged(self):
        sim = make_sim(n_nodes=4, seed=2)
        conflicted = [ITEMS[0], ITEMS[7], ITEMS[13]]
        for idx, item in enumerate(conflicted):
            sim.apply_update(0, item, Put(f"zero-{idx}".encode()))
            sim.apply_update(1, item, Put(f"one-{idx}".encode()))
        for _ in range(25):
            sim.run_round()
        detected = set()
        for node in sim.nodes:
            for report in node.node.conflicts.reports:
                detected.add(report.item)
        assert set(conflicted) <= detected

    def test_conflict_reports_pinpoint_offending_origins(self):
        sim = make_sim(n_nodes=4, seed=2)
        sim.apply_update(1, ITEMS[0], Put(b"one"))
        sim.apply_update(3, ITEMS[0], Put(b"three"))
        for _ in range(20):
            sim.run_round()
        origins = set()
        for node in sim.nodes:
            for report in node.node.conflicts.reports:
                origins.update(report.origins)
        assert origins == {1, 3}


class TestC2NoNewInconsistency:
    def test_conflicting_values_are_never_overwritten(self):
        """Both lineages survive everywhere: no replica that holds one
        lineage ever silently switches to the other."""
        sim = make_sim(n_nodes=4, seed=5)
        sim.apply_update(0, ITEMS[0], Put(b"lineage-a"))
        sim.apply_update(1, ITEMS[0], Put(b"lineage-b"))
        for _ in range(25):
            sim.run_round()
        values = {node.read(ITEMS[0]) for node in sim.nodes}
        # Nothing but the two lineages (and possibly the initial empty
        # value on nodes that refused both) may exist.
        assert values <= {b"lineage-a", b"lineage-b", b""}
        assert b"lineage-a" in values and b"lineage-b" in values

    def test_adoption_only_from_dominating_copies(self):
        """Sampled directly: after every session of a long run, each
        node's per-item IVVs only ever grew (never moved sideways)."""
        sim = make_sim(n_nodes=3, seed=7)
        workload = SingleWriterWorkload(ITEMS, 3, seed=7)
        previous = [
            {e.name: e.ivv.as_tuple() for e in node.node.store}
            for node in sim.nodes
        ]
        for event in workload.generate(60):
            sim.apply_update(event.node, event.item, event.op)
            sim.run_round()
            for node_id, node in enumerate(sim.nodes):
                for entry in node.node.store:
                    old = previous[node_id][entry.name]
                    new = entry.ivv.as_tuple()
                    assert all(n >= o for n, o in zip(new, old)), (
                        f"IVV of {entry.name} on node {node_id} went backwards"
                    )
                    previous[node_id][entry.name] = new


class TestC3Catchup:
    @pytest.mark.parametrize(
        "selector",
        [
            RandomSelector(),
            RingSelector(),
            StarSelector(hub=0),
            TopologySelector((k, k + 1) for k in range(4)),
        ],
        ids=["random", "ring", "star", "path-topology"],
    )
    def test_all_schedules_converge(self, selector):
        """Theorem 5: any schedule with transitive coverage converges."""
        sim = make_sim(n_nodes=5, seed=3, selector=selector)
        workload = SingleWriterWorkload(ITEMS, 5, seed=3)
        Trace.from_events(workload.generate(150)).replay(sim, updates_per_round=25)
        sim.run_until_converged(max_rounds=200)
        assert sim.ground_truth.fully_current(sim.nodes)
        assert sim.total_conflicts() == 0
        for node in sim.nodes:
            node.check_invariants()

    def test_obsolete_replica_catches_up_after_long_isolation(self):
        from repro.cluster.failures import Crash, FailurePlan, Recover

        plan = FailurePlan([Crash(node=4, at_round=1), Recover(node=4, at_round=30)])
        sim = ClusterSimulation(
            make_factory("dbvv", 5, ITEMS), 5, ITEMS,
            failure_plan=plan, seed=9,
        )
        workload = SingleWriterWorkload(ITEMS, 4, seed=9)  # writers 0..3
        trace = Trace.from_events(workload.generate(100))
        trace.replay(sim, updates_per_round=10)
        sim.run_until_converged(max_rounds=120)
        assert sim.nodes[4].state_fingerprint() == sim.nodes[0].state_fingerprint()

    def test_multi_writer_uniform_workload_converges_when_conflict_free(self):
        """Uniform workload routed through a single round-robin writer
        per update is conflict-free even though every node writes."""
        sim = make_sim(n_nodes=4, seed=11)
        workload = UniformWorkload(ITEMS, 4, seed=11)
        for event in workload.generate(80):
            # Route each item's updates through its hash-owner to avoid
            # concurrent writes; then propagate.
            owner = hash(event.item) % 4
            sim.apply_update(owner, event.item, event.op)
        sim.run_until_converged(max_rounds=100)
        assert sim.ground_truth.fully_current(sim.nodes)
