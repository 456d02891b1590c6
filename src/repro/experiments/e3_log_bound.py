"""E3 — the log vector stays bounded by n·N (paper section 4.2).

"The key point is that, from all updates performed by j to a given data
item that i knows about, only the record about the latest update to
this data item is retained" — so "the total number of records in the
log vector is bounded by nN", no matter how many updates occur, and
AddLogRecord runs in constant time.

The experiment hammers a small hot set with many updates and tracks:

* log size versus update count — must plateau at (number of items ever
  updated), versus the ablated append-only log which grows without
  bound;
* the cost of extracting a propagation tail afterwards — proportional
  to the hot-set size for the bounded log, proportional to the *entire
  update history* for the ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.log_vector import LogComponent
from repro.experiments.ablations import AppendOnlyLog
from repro.metrics.reporting import Table
from repro.obs import OverheadCounters

__all__ = ["E3Row", "run", "report", "main"]

DEFAULT_UPDATE_COUNTS = (100, 1_000, 10_000, 100_000)
DEFAULT_HOT_ITEMS = 25


@dataclass(frozen=True)
class E3Row:
    """Log behaviour after ``updates`` updates to ``hot_items`` items."""

    updates: int
    hot_items: int
    bounded_size: int
    unbounded_size: int
    bounded_tail_records: int      # records examined to build a full tail
    unbounded_tail_records: int
    bounded_evictions: int


def _drive(log, updates: int, hot_items: int, counters: OverheadCounters) -> None:
    """Apply ``updates`` round-robin updates over ``hot_items`` items."""
    for seqno in range(1, updates + 1):
        item = f"hot-{seqno % hot_items:04d}"
        log.add(item, seqno, counters)


def run(
    update_counts: tuple[int, ...] = DEFAULT_UPDATE_COUNTS,
    hot_items: int = DEFAULT_HOT_ITEMS,
) -> list[E3Row]:
    """Sweep update volume; compare bounded vs append-only logs."""
    rows = []
    for updates in update_counts:
        bounded_counters = OverheadCounters()
        unbounded_counters = OverheadCounters()
        bounded = LogComponent(origin=0)
        unbounded = AppendOnlyLog(origin=0)
        _drive(bounded, updates, hot_items, bounded_counters)
        _drive(unbounded, updates, hot_items, unbounded_counters)

        # A brand-new replica (threshold 0) asks for everything: the
        # bounded tail has one record per hot item; the unbounded tail
        # replays all history.
        tail_counters_b = OverheadCounters()
        tail_counters_u = OverheadCounters()
        bounded.tail_after(0, tail_counters_b)
        unbounded.tail_after(0, tail_counters_u)

        rows.append(
            E3Row(
                updates=updates,
                hot_items=hot_items,
                bounded_size=len(bounded),
                unbounded_size=len(unbounded),
                bounded_tail_records=tail_counters_b.log_records_examined,
                unbounded_tail_records=tail_counters_u.log_records_examined,
                bounded_evictions=bounded_counters.log_records_evicted,
            )
        )
    return rows


def report(rows: list[E3Row]) -> Table:
    table = Table(
        "E3 — log growth under repeated updates to a hot set "
        f"({rows[0].hot_items if rows else '?'} items; bounded = the "
        "paper's one-record-per-item rule, unbounded = append-only ablation)",
        ["updates", "bounded size", "unbounded size",
         "bounded tail", "unbounded tail", "evictions"],
    )
    for row in rows:
        table.add_row([
            row.updates,
            row.bounded_size,
            row.unbounded_size,
            row.bounded_tail_records,
            row.unbounded_tail_records,
            row.bounded_evictions,
        ])
    return table


def main() -> None:
    report(run()).print()


if __name__ == "__main__":
    main()
