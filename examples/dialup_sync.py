#!/usr/bin/env python3
"""Dial-up replication: the paper's motivating deployment.

A home office server replicates a 2,000-item product catalog from two
regional offices.  Connectivity is a nightly dial-up session — exactly
the "update propagation can be done at a convenient time" story of the
paper's introduction.  The demo measures what each nightly session
costs under the paper's protocol versus a Lotus-style scan, and uses an
out-of-bound fetch when a salesperson needs one price *right now*.

Run:  python examples/dialup_sync.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines.lotus import LotusNode
from repro.cluster.network import SimulatedNetwork
from repro.core.protocol import DBVVProtocolNode
from repro.metrics.reporting import Table
from repro.obs import OverheadCounters
from repro.substrate.operations import Put
from repro.workload.generators import HotColdWorkload

N_ITEMS = 2_000
CATALOG = [f"sku-{k:05d}" for k in range(N_ITEMS)]
NIGHTS = 5
UPDATES_PER_DAY = 25


def run_protocol(name, factory):
    """Simulate NIGHTS days: daytime updates at the offices, one
    nightly dial-up pull by the home office from each office."""
    counters = [OverheadCounters() for _ in range(3)]
    offices = [factory(k, counters[k]) for k in range(2)]
    home = factory(2, counters[2])
    traffic = OverheadCounters()
    line = SimulatedNetwork(3, counters=traffic)

    # Office 0 owns the even SKUs, office 1 the odd ones (no conflicts).
    workload = HotColdWorkload(CATALOG, 1, seed=7, hot_fraction=0.02)
    nightly_rows = []
    for night in range(1, NIGHTS + 1):
        for event in workload.generate(UPDATES_PER_DAY):
            office = hash(event.item) % 2
            offices[office].user_update(event.item, event.op)
        for bundle in counters:
            bundle.reset()
        traffic.reset()
        for office in offices:
            home.sync_with(office, line)
        work = sum(bundle.total_work() for bundle in counters)
        nightly_rows.append((night, work, traffic.bytes_sent))
    return nightly_rows


def main() -> None:
    table = Table(
        f"Nightly dial-up cost, {N_ITEMS}-item catalog, "
        f"{UPDATES_PER_DAY} updates/day (work = comparisons + scans)",
        ["night", "dbvv work", "dbvv bytes", "lotus work", "lotus bytes"],
    )
    dbvv_rows = run_protocol(
        "dbvv", lambda k, c: DBVVProtocolNode(k, 3, CATALOG, counters=c)
    )
    lotus_rows = run_protocol(
        "lotus", lambda k, c: LotusNode(k, 3, CATALOG, counters=c)
    )
    for (night, dwork, dbytes), (_n, lwork, lbytes) in zip(dbvv_rows, lotus_rows):
        table.add_row([night, dwork, dbytes, lwork, lbytes])
    table.print()

    # The urgent mid-day fetch: a salesperson needs one SKU's price now.
    counters = OverheadCounters()
    office = DBVVProtocolNode(0, 2, CATALOG)
    laptop = DBVVProtocolNode(1, 2, CATALOG, counters=counters)
    office.user_update("sku-00042", Put(b"$199 (flash sale)"))
    line = SimulatedNetwork(2)
    laptop.fetch_out_of_bound("sku-00042", office, line)
    print(
        f"out-of-bound fetch of sku-00042: laptop reads "
        f"{laptop.read('sku-00042')!r} after {counters.vv_comparisons} "
        "vector comparison(s) — no catalog scan, no log traffic"
    )


if __name__ == "__main__":
    main()
