#!/usr/bin/env python3
"""Branch offices: multiple databases per host, operation shipping,
and asynchronous schedules.

Three branch offices each host replicas of two databases — a CRM and a
wiki — as independent protocol instances on one machine (paper
section 2: "a separate instance of the protocol runs for each
database").  The wiki holds large pages that receive small edits, so it
runs the protocol in operation-shipping mode (the paper's alternative
propagation method); the CRM copies whole records.  Offices synchronize
on their own timetables via the event-driven simulator.

Run:  python examples/branch_offices.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster.event_sim import EventDrivenSimulation, NodeSchedule
from repro.core.protocol import DBVVProtocolNode, DeltaProtocolNode
from repro.metrics.reporting import Table, format_bytes
from repro.substrate.database import DatabaseSchema
from repro.substrate.host import Host
from repro.substrate.operations import BytePatch, Put

N_OFFICES = 3
CRM = DatabaseSchema.with_generated_items("crm", 200, N_OFFICES, prefix="customer")
WIKI = DatabaseSchema.with_generated_items("wiki", 50, N_OFFICES, prefix="page")
PAGE_SIZE = 16_384


def build_hosts() -> list[Host]:
    hosts = []
    for office in range(N_OFFICES):
        host = Host(office)
        host.add_database(
            CRM, lambda node_id: DBVVProtocolNode(node_id, N_OFFICES, CRM.items)
        )
        host.add_database(
            WIKI, lambda node_id: DeltaProtocolNode(node_id, N_OFFICES, WIKI.items)
        )
        hosts.append(host)
    return hosts


def demo_hosts() -> None:
    hosts = build_hosts()
    # Office 0 lands a customer and fixes a typo on a big wiki page.
    hosts[0].replica("crm").update("customer-00017", Put(b"ACME Corp; tier=gold"))
    hosts[0].replica("wiki").update("page-00003", Put(b"x" * PAGE_SIZE))
    hosts[1].sync_all_from(hosts[0])
    hosts[2].sync_all_from(hosts[1])
    hosts[0].replica("wiki").update("page-00003", BytePatch(1_024, b"[typo fixed]"))

    from repro.interfaces import DirectTransport
    from repro.obs import OverheadCounters

    traffic = OverheadCounters()
    line = DirectTransport(traffic)
    results = hosts[1].sync_all_from(hosts[0], line)
    table = Table(
        "Office 1's next session with office 0 (one connection, every "
        "shared database; the wiki ships the 12-byte patch, not the "
        f"{format_bytes(PAGE_SIZE)} page)",
        ["database", "items moved", "identical?"],
    )
    for database, stats in sorted(results.items()):
        table.add_row([
            database, stats.items_transferred, "yes" if stats.identical else "no",
        ])
    table.print()
    print(f"total session traffic: {format_bytes(traffic.bytes_sent)}")
    assert hosts[1].replica("wiki").read("page-00003")[1_024:1_036] == b"[typo fixed]"


def demo_async_schedules() -> None:
    """The same offices on their own timetables: office 2 only dials in
    a tenth as often, yet converges — just later."""
    schedules = [
        NodeSchedule(period=5.0, jitter=0.2),
        NodeSchedule(period=5.0, jitter=0.2),
        NodeSchedule(period=50.0, jitter=0.2),
    ]
    sim = EventDrivenSimulation(
        lambda node_id, counters: DBVVProtocolNode(
            node_id, N_OFFICES, CRM.items, counters=counters
        ),
        N_OFFICES,
        CRM.items,
        schedules=schedules,
        seed=21,
    )
    sim.schedule_update(1.0, 0, "customer-00001", Put(b"signed!"))
    sim.run_until(20.0)
    fast_pair = {sim.nodes[0].read("customer-00001"), sim.nodes[1].read("customer-00001")}
    laggard = sim.nodes[2].read("customer-00001")
    print(
        f"t=20: fast offices see {fast_pair}, slow office sees {laggard!r}"
    )
    converged_at = sim.run_until_converged(deadline=1_000.0)
    print(f"all offices converged by simulated t={converged_at:.0f} "
          f"({sim.sessions_run} sessions total)")
    assert sim.nodes[2].read("customer-00001") == b"signed!"


def main() -> None:
    demo_hosts()
    demo_async_schedules()


if __name__ == "__main__":
    main()
