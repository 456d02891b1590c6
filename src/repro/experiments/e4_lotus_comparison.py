"""E4 — the two Lotus Notes deficiencies (paper section 8.1).

**E4a — redundant propagation between identical replicas.**  After
indirect copying (the E1 triangle), Lotus's modification-time test
fails: the source scans all N items and ships a change list the
recipient must grind through, even though nothing will move.  The DBVV
protocol answers "you are current" after one vector comparison.  This
sub-experiment sweeps N and reports both protocols' work on the
identical-replica session.

**E4b — incorrect conflict resolution.**  The paper's example: "if i
made two updates to x while j made one conflicting update without
obtaining i's copy first, x_i will be declared newer, since its
sequence number is greater.  It will override x_j in the next execution
of update propagation.  Thus, Lotus protocol does not satisfy the
correctness criteria."  This sub-experiment replays exactly that
history under both protocols and reports who noticed: Lotus silently
destroys j's update; the DBVV protocol detects the inconsistency,
leaves both copies intact, and reports the conflict.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.lotus import LotusNode
from repro.cluster.network import SimulatedNetwork
from repro.core.protocol import DBVVProtocolNode
from repro.experiments.e1_identical_detection import E1Row, run_triangle_session
from repro.metrics.reporting import Table
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

__all__ = [
    "E4ConflictResult",
    "run_redundancy",
    "run_conflict_scenario",
    "report_redundancy",
    "report_conflicts",
    "main",
]

DEFAULT_SIZES = (100, 1_000, 10_000)
DEFAULT_UPDATES = 10


@dataclass(frozen=True)
class E4ConflictResult:
    """Outcome of the paper's 2-vs-1 concurrent-update example."""

    protocol: str
    value_at_i: bytes
    value_at_j: bytes
    j_update_survived: bool
    conflict_reported: bool


def run_redundancy(
    sizes: tuple[int, ...] = DEFAULT_SIZES, updates: int = DEFAULT_UPDATES
) -> list[E1Row]:
    """E4a: the E1 triangle, restricted to the two protagonists."""
    return [
        run_triangle_session(protocol, n_items, updates)
        for protocol in ("dbvv", "lotus")
        for n_items in sizes
    ]


def run_conflict_scenario(protocol: str) -> E4ConflictResult:
    """E4b: i updates x twice, j updates x once, then j pulls from i."""
    items = ["x"]
    counters = [OverheadCounters(), OverheadCounters()]
    transport = SimulatedNetwork(2)
    if protocol == "dbvv":
        node_i = DBVVProtocolNode(0, 2, items, counters=counters[0])
        node_j = DBVVProtocolNode(1, 2, items, counters=counters[1])
    elif protocol == "lotus":
        node_i = LotusNode(0, 2, items, counters=counters[0])
        node_j = LotusNode(1, 2, items, counters=counters[1])
    else:
        raise ValueError(f"E4b compares dbvv and lotus, not {protocol!r}")

    node_i.user_update("x", Put(b"i-first"))
    node_i.user_update("x", Put(b"i-second"))
    node_j.user_update("x", Put(b"j-only"))

    stats = node_j.sync_with(node_i, transport)
    j_value = node_j.read("x")
    return E4ConflictResult(
        protocol=protocol,
        value_at_i=node_i.read("x"),
        value_at_j=j_value,
        j_update_survived=j_value == b"j-only",
        conflict_reported=(stats.conflicts > 0) or node_j.conflict_count() > 0,
    )


def report_redundancy(rows: list[E1Row]) -> Table:
    table = Table(
        "E4a — work on an identical-replica session after indirect copying "
        "(Lotus cannot tell the replicas are identical; dbvv can, in O(1))",
        ["protocol", "N items", "identical detected?", "work", "bytes"],
    )
    for row in rows:
        table.add_row([
            row.protocol,
            row.n_items,
            "yes" if row.detected_identical else "NO",
            row.work,
            row.bytes_sent,
        ])
    return table


def report_conflicts(results: list[E4ConflictResult]) -> Table:
    table = Table(
        "E4b — the paper's conflict example (i: 2 updates, j: 1 concurrent "
        "update; then j pulls from i)",
        ["protocol", "j's copy after sync", "j's update survived?",
         "conflict reported?"],
    )
    for result in results:
        table.add_row([
            result.protocol,
            result.value_at_j.decode(),
            "yes" if result.j_update_survived else "NO (lost update)",
            "yes" if result.conflict_reported else "NO (silent)",
        ])
    return table


def main() -> None:
    report_redundancy(run_redundancy()).print()
    report_conflicts(
        [run_conflict_scenario("lotus"), run_conflict_scenario("dbvv")]
    ).print()


if __name__ == "__main__":
    main()
