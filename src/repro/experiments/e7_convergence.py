"""E7 — correctness under transitive propagation (paper section 7,
Theorem 5) and epidemic convergence speed.

Theorem 5: "If update propagation is scheduled in such a way that every
node eventually performs update propagation transitively from every
other node, then correctness criteria from Section 2.1 are satisfied."
The three criteria:

* **C1** — inconsistent replicas are eventually detected;
* **C2** — propagation never introduces new inconsistency (a replica
  only ever adopts a dominating copy);
* **C3** — every obsolete replica eventually catches up; once updates
  stop, all replicas converge.

This experiment runs the DBVV protocol over every provided scheduling
policy and node count:

* conflict-free workloads must converge with zero conflicts reported
  (C2+C3), in rounds that grow slowly with n for random peer selection
  (the classic epidemic O(log n)) and linearly for the ring;
* deliberately conflicting workloads must produce at least one conflict
  report per conflicting item (C1) while never silently merging.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.cluster.scheduler import PeerSelector, RandomSelector, RingSelector
from repro.cluster.simulation import ClusterSimulation
from repro.experiments.common import make_factory, make_items
from repro.metrics.reporting import Table
from repro.workload.generators import ConflictingWorkload, SingleWriterWorkload
from repro.workload.traces import Trace

__all__ = ["E7Row", "run_convergence", "run_conflict_detection", "report", "main"]

DEFAULT_NODE_COUNTS = (4, 8, 16, 32, 64)
DEFAULT_ITEMS = 100
DEFAULT_UPDATES = 200
DEFAULT_SEEDS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class E7Row:
    """Convergence behaviour for one (selector, n) point."""

    selector: str
    n_nodes: int
    mean_rounds: float
    max_rounds: int
    conflicts: int
    runs: int


def converge_once(
    n_nodes: int, selector: PeerSelector, seed: int,
    n_items: int = DEFAULT_ITEMS, updates: int = DEFAULT_UPDATES,
) -> tuple[int, int]:
    """One run: seed a conflict-free workload, converge, return
    (rounds, conflicts)."""
    items = make_items(n_items)
    workload = SingleWriterWorkload(items, n_nodes, seed=seed)
    trace = Trace.from_events(workload.generate(updates))
    sim = ClusterSimulation(
        make_factory("dbvv", n_nodes, items), n_nodes, items,
        selector=selector, seed=seed,
    )
    trace.replay(sim, updates_per_round=0)
    rounds = sim.run_until_converged(max_rounds=50 * n_nodes)
    if not sim.ground_truth.fully_current(sim.nodes):
        raise AssertionError("converged but not to the ground truth")
    return rounds, sim.total_conflicts()


def default_selector_families() -> list[tuple]:
    """(factory(n_nodes) -> PeerSelector, table name) pairs for the
    standard sweep; :func:`run_convergence` takes other families too."""
    return [
        (lambda n: RandomSelector(), "random"),
        (lambda n: RingSelector(), "ring"),
    ]


def run_convergence(
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    families: list[tuple] | None = None,
) -> list[E7Row]:
    """Sweep node counts for each scheduling family (default: random
    pull and the deterministic ring)."""
    rows = []
    for selector_factory, name in (
        families if families is not None else default_selector_families()
    ):
        for n_nodes in node_counts:
            results = [
                converge_once(n_nodes, selector_factory(n_nodes), seed)
                for seed in seeds
            ]
            rounds = [r for r, _c in results]
            conflicts = sum(c for _r, c in results)
            rows.append(
                E7Row(
                    selector=name,
                    n_nodes=n_nodes,
                    mean_rounds=statistics.mean(rounds),
                    max_rounds=max(rounds),
                    conflicts=conflicts,
                    runs=len(seeds),
                )
            )
    return rows


@dataclass(frozen=True)
class ConflictDetectionResult:
    """C1 check: conflicts planted vs conflicts detected."""

    planted: int
    detected_items: int
    silently_merged: int


def run_conflict_detection(
    n_nodes: int = 4, n_conflicts: int = 10, seed: int = 3
) -> ConflictDetectionResult:
    """Plant concurrent conflicting update pairs, run anti-entropy,
    count detections (C1) and silent merges (must be zero, C2)."""
    items = make_items(50)
    workload = ConflictingWorkload(items, n_nodes, seed=seed)
    pairs = workload.conflicting_pairs(n_conflicts)
    sim = ClusterSimulation(
        make_factory("dbvv", n_nodes, items), n_nodes, items, seed=seed
    )
    planted_items = set()
    for event_a, event_b in pairs:
        # Updates go through the simulation so the ground-truth dirty
        # frontier sees them (the truth itself is meaningless for a
        # conflicting pair, but conflict detection below never reads it).
        sim.apply_update(event_a.node, event_a.item, event_a.op)
        sim.apply_update(event_b.node, event_b.item, event_b.op)
        planted_items.add(event_a.item)
    for _ in range(6 * n_nodes):
        sim.run_round()

    detected: set[str] = set()
    for node in sim.nodes:
        for item_report in node.node.conflicts.reports:  # type: ignore[attr-defined]
            detected.add(item_report.item)
    # A silent merge would show as a planted item whose replicas all
    # agree even though no conflict was ever reported for it.
    merged = 0
    for item in planted_items:
        values = {node.read(item) for node in sim.nodes}
        if len(values) == 1 and item not in detected:
            merged += 1
    return ConflictDetectionResult(
        planted=len(planted_items),
        detected_items=len(detected & planted_items),
        silently_merged=merged,
    )


def report(rows: list[E7Row], detection: ConflictDetectionResult) -> Table:
    table = Table(
        "E7 — rounds to convergence (conflict-free workload; Theorem 5 "
        f"correctness; conflict check: {detection.detected_items}/"
        f"{detection.planted} planted conflicts detected, "
        f"{detection.silently_merged} silently merged)",
        ["selector", "n nodes", "mean rounds", "max rounds", "conflicts"],
    )
    for row in rows:
        table.add_row([
            row.selector, row.n_nodes, row.mean_rounds, row.max_rounds,
            row.conflicts,
        ])
    return table


def main() -> None:
    rows = run_convergence()
    detection = run_conflict_detection()
    report(rows, detection).print()


if __name__ == "__main__":
    main()
