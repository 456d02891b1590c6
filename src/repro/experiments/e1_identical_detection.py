"""E1 — detecting identical replicas: O(1) versus O(N).

Paper claims (sections 6 and 8.1): the DBVV protocol "always recognizes
that two database replicas are identical in constant time, by simply
comparing their DBVVs", whereas Lotus Notes "incurs high overhead for
attempting update propagation between identical database replicas" —
at minimum a scan of every item — and per-item anti-entropy compares
every item's version vector unconditionally.

Scenario (the paper's own, section 8.1): the *indirect-copy triangle*.

1. node 0 updates ``u`` items;
2. node 1 pulls from node 0 (gets the updates);
3. node 2 pulls from node 1 (gets the updates *indirectly*);
4. **measurement**: node 2 pulls from node 0.

At step 4 the two replicas are identical, but node 0 *has* modified
items since it last spoke to node 2 (never), so Lotus's cheap
modification-time test fails and it does linear work; per-item
anti-entropy ships and compares all N IVVs; Wuu–Bernstein scans its
log and ships an n×n table; the DBVV protocol compares two vectors and
answers "you are current".

Expected shape: flat in N for dbvv, linear in N for per-item-vv and
lotus; wuu-bernstein flat-ish in N but linear in *update volume* and
carrying the n² table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.network import SimulatedNetwork
from repro.experiments.common import EPIDEMIC_PROTOCOLS, make_items, protocol_class
from repro.metrics.reporting import Table
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

__all__ = ["E1Row", "run_triangle_session", "run", "report", "main"]

DEFAULT_SIZES = (100, 400, 1_600, 6_400, 25_600)
DEFAULT_UPDATES = 20


@dataclass(frozen=True)
class E1Row:
    """Cost of the step-4 session for one (protocol, N) point."""

    protocol: str
    n_items: int
    detected_identical: bool
    work: int              # comparisons + scans, both endpoints
    items_scanned: int
    bytes_sent: int
    messages: int


def run_triangle_session(protocol: str, n_items: int, updates: int) -> E1Row:
    """Build the triangle, measure the identical-replica session."""
    items = make_items(n_items)
    cls_items = items[:updates]
    counters = [OverheadCounters() for _ in range(3)]
    transport_counters = OverheadCounters()
    transport = SimulatedNetwork(3, counters=transport_counters)

    cls = protocol_class(protocol)
    nodes = [cls(k, 3, items, counters=counters[k]) for k in range(3)]  # type: ignore[call-arg]

    for idx, item in enumerate(cls_items):
        nodes[0].user_update(item, Put(f"{item}:v{idx}".encode()))
    nodes[1].sync_with(nodes[0], transport)
    nodes[2].sync_with(nodes[1], transport)
    assert nodes[2].state_fingerprint() == nodes[0].state_fingerprint(), (
        "triangle setup failed: replicas differ before the measured session"
    )

    for bundle in counters:
        bundle.reset()
    transport_counters.reset()

    stats = nodes[2].sync_with(nodes[0], transport)
    work = sum(bundle.total_work() for bundle in counters)
    scanned = sum(bundle.items_scanned for bundle in counters)
    return E1Row(
        protocol=protocol,
        n_items=n_items,
        detected_identical=stats.identical,
        work=work,
        items_scanned=scanned,
        bytes_sent=transport_counters.bytes_sent,
        messages=transport_counters.messages_sent,
    )


def run(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    updates: int = DEFAULT_UPDATES,
    protocols: tuple[str, ...] = EPIDEMIC_PROTOCOLS,
) -> list[E1Row]:
    """The full sweep: every protocol at every database size."""
    return [
        run_triangle_session(protocol, n_items, updates)
        for protocol in protocols
        for n_items in sizes
    ]


def report(rows: list[E1Row]) -> Table:
    """Render the sweep as the experiment's table."""
    table = Table(
        "E1 — cost of one anti-entropy session between IDENTICAL replicas "
        "(indirect-copy triangle; work = comparisons + scans)",
        ["protocol", "N items", "identical?", "work", "items scanned",
         "bytes", "msgs"],
    )
    for row in rows:
        table.add_row([
            row.protocol,
            row.n_items,
            "yes" if row.detected_identical else "NO",
            row.work,
            row.items_scanned,
            row.bytes_sent,
            row.messages,
        ])
    return table


def main() -> None:
    report(run()).print()


if __name__ == "__main__":
    main()
