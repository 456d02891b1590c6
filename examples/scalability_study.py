#!/usr/bin/env python3
"""Scalability study: anti-entropy overhead as the database grows.

The paper's headline claim, as a table you can regenerate: grow the
database from 100 to 25,600 items while the workload (m = items that
actually changed between sessions) stays fixed, and watch what one
anti-entropy session costs under each protocol.

The expected shape — and the reason to adopt the paper's protocol:

* dbvv           flat in N (cost follows m only),
* per-item-vv    linear in N (compares every item's vector),
* lotus          linear in N (scans every item's modification time),
* wuu-bernstein  flat-ish in N but pays per update volume and ships an
                 n-squared time-table.

Run:  python examples/scalability_study.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.common import EPIDEMIC_PROTOCOLS
from repro.experiments.e2_propagation_cost import run_session
from repro.metrics.reporting import Table, format_ratio

SIZES = (100, 400, 1_600, 6_400, 25_600)
M_CHANGED = 20


def main() -> None:
    table = Table(
        f"One propagation session, m={M_CHANGED} changed items "
        "(work = comparisons + scans; metadata = bytes beyond item values)",
        ["N items"]
        + [f"{p} work" for p in EPIDEMIC_PROTOCOLS]
        + ["dbvv metadata B"],
    )
    results = {}
    for n_items in SIZES:
        row = [n_items]
        for protocol in EPIDEMIC_PROTOCOLS:
            result = run_session(protocol, n_items, M_CHANGED)
            results[(protocol, n_items)] = result
            row.append(result.work)
        row.append(results[("dbvv", n_items)].metadata_bytes)
        table.add_row(row)
    table.print()

    small, large = SIZES[0], SIZES[-1]
    for protocol in EPIDEMIC_PROTOCOLS:
        growth = format_ratio(
            results[(protocol, large)].work, results[(protocol, small)].work
        )
        print(f"{protocol:14s} work growth over a {large // small}x larger DB: {growth}")
    dbvv_large = results[("dbvv", large)]
    lotus_large = results[("lotus", large)]
    print(
        f"\nat N={large}: dbvv does {dbvv_large.work} units of work where "
        f"lotus does {lotus_large.work} "
        f"({format_ratio(lotus_large.work, dbvv_large.work)})"
    )


if __name__ == "__main__":
    main()
