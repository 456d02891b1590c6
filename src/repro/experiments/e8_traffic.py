"""E8 — end-to-end traffic and work under a steady-state workload.

The paper's overall economic argument (sections 1, 6, 8): epidemic
bundling ships "multiple updates ... in a single transfer"; the DBVV
protocol keeps that while paying only constant metadata per shipped
item and constant work per identical-replica probe.  This experiment
runs every protocol over the identical update trace (single-writer, so
all five can converge) with interleaved anti-entropy rounds, runs to
convergence, and totals:

* rounds to convergence after the workload ends,
* messages and bytes on the wire,
* comparison/scan work,
* items shipped (re-shipping the same item repeatedly is the redundancy
  the one-record-per-item rule removes).

Expected shape: dbvv's work column is an order of magnitude below
per-item-vv and lotus at these sizes (and the gap widens with N);
oracle-push has the least traffic but is the protocol E5 shows to be
failure-fragile; wuu-bernstein's bytes carry the n² time-table and its
work tracks log volume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.simulation import ClusterSimulation
from repro.errors import ConvergenceError
from repro.experiments.common import PROTOCOLS, make_factory, make_items
from repro.metrics.reporting import Table
from repro.workload.generators import SingleWriterWorkload
from repro.workload.traces import Trace

__all__ = ["E8Row", "run", "report", "main"]

DEFAULT_NODES = 6
DEFAULT_ITEMS = 400
DEFAULT_UPDATES = 600
DEFAULT_UPDATES_PER_ROUND = 40
DEFAULT_SEED = 17


@dataclass(frozen=True)
class E8Row:
    """Totals for one protocol over the shared trace."""

    protocol: str
    rounds_total: int
    converged: bool
    messages: int
    bytes_sent: int
    work: int
    items_shipped: int
    conflicts: int


def run(
    n_nodes: int = DEFAULT_NODES,
    n_items: int = DEFAULT_ITEMS,
    updates: int = DEFAULT_UPDATES,
    updates_per_round: int = DEFAULT_UPDATES_PER_ROUND,
    seed: int = DEFAULT_SEED,
    protocols: tuple[str, ...] = tuple(PROTOCOLS),
) -> list[E8Row]:
    """Replay the same trace through every protocol, to convergence."""
    items = make_items(n_items)
    workload = SingleWriterWorkload(items, n_nodes, seed=seed)
    trace = Trace.from_events(workload.generate(updates))

    rows = []
    for protocol in protocols:
        sim = ClusterSimulation(
            make_factory(protocol, n_nodes, items),
            n_nodes,
            items,
            seed=seed,
        )
        trace.replay(sim, updates_per_round=updates_per_round)
        converged = True
        try:
            sim.run_until_converged(max_rounds=60 * n_nodes)
        except ConvergenceError:
            converged = False
        totals = sim.total_counters
        shipped = sum(stats.items_transferred for stats in sim.history)
        rows.append(
            E8Row(
                protocol=protocol,
                rounds_total=sim.round_no,
                converged=converged and sim.ground_truth.fully_current(sim.nodes),
                messages=totals.messages_sent,
                bytes_sent=totals.bytes_sent,
                work=totals.total_work(),
                items_shipped=shipped,
                conflicts=sim.total_conflicts(),
            )
        )
    return rows


def report(rows: list[E8Row]) -> Table:
    table = Table(
        "E8 — identical single-writer trace through every protocol "
        "(steady-state rounds interleaved with updates, then run to "
        "convergence)",
        ["protocol", "rounds", "converged?", "msgs", "bytes", "work",
         "items shipped", "conflicts"],
    )
    for row in rows:
        table.add_row([
            row.protocol,
            row.rounds_total,
            "yes" if row.converged else "NO",
            row.messages,
            row.bytes_sent,
            row.work,
            row.items_shipped,
            row.conflicts,
        ])
    return table


def main() -> None:
    report(run()).print()


if __name__ == "__main__":
    main()
