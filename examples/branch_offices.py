#!/usr/bin/env python3
"""Branch offices: multiple databases per host, operation shipping,
and asynchronous schedules.

Three branch offices each host replicas of two databases — a CRM and a
wiki — as independent protocol instances, one per database (paper
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
from repro.cluster.network import SimulatedNetwork
from repro.core.protocol import DBVVProtocolNode, DeltaProtocolNode
from repro.interfaces import ProtocolNode, SyncStats, Transport
from repro.metrics.reporting import Table, format_bytes
from repro.obs import OverheadCounters
from repro.substrate.operations import BytePatch, Put

N_OFFICES = 3
CRM_ITEMS = [f"customer-{k:05d}" for k in range(200)]
WIKI_ITEMS = [f"page-{k:05d}" for k in range(50)]
PAGE_SIZE = 16_384

#: An office is one protocol instance per database it replicates.
Office = dict[str, ProtocolNode]


def build_offices() -> list[Office]:
    return [
        {
            "crm": DBVVProtocolNode(office, N_OFFICES, CRM_ITEMS),
            "wiki": DeltaProtocolNode(office, N_OFFICES, WIKI_ITEMS),
        }
        for office in range(N_OFFICES)
    ]


def sync_all(
    office: Office, peer: Office, transport: Transport
) -> dict[str, SyncStats]:
    """One dial-up session: pull every database both offices replicate,
    each through its own protocol instance."""
    return {
        database: replica.sync_with(peer[database], transport)
        for database, replica in sorted(office.items())
        if database in peer
    }


def demo_offices() -> None:
    offices = build_offices()
    # Office 0 lands a customer and fixes a typo on a big wiki page.
    offices[0]["crm"].user_update("customer-00017", Put(b"ACME Corp; tier=gold"))
    offices[0]["wiki"].user_update("page-00003", Put(b"x" * PAGE_SIZE))
    link = SimulatedNetwork(N_OFFICES)
    sync_all(offices[1], offices[0], link)
    sync_all(offices[2], offices[1], link)
    offices[0]["wiki"].user_update("page-00003", BytePatch(1_024, b"[typo fixed]"))

    traffic = OverheadCounters()
    results = sync_all(
        offices[1], offices[0], SimulatedNetwork(N_OFFICES, counters=traffic)
    )
    table = Table(
        "Office 1's next session with office 0 (one connection, every "
        "shared database; the wiki ships the 12-byte patch, not the "
        f"{format_bytes(PAGE_SIZE)} page)",
        ["database", "items moved", "identical?"],
    )
    for database, stats in results.items():
        table.add_row([
            database, stats.items_transferred, "yes" if stats.identical else "no",
        ])
    table.print()
    print(f"total session traffic: {format_bytes(traffic.bytes_sent)}")
    assert offices[1]["wiki"].read("page-00003")[1_024:1_036] == b"[typo fixed]"


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
            node_id, N_OFFICES, CRM_ITEMS, counters=counters
        ),
        N_OFFICES,
        CRM_ITEMS,
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
    demo_offices()
    demo_async_schedules()


if __name__ == "__main__":
    main()
