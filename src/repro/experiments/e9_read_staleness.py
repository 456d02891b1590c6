"""E9 — user-visible staleness vs the anti-entropy schedule.

The paper's section 8 observes that the classic way to cut anti-entropy
overhead — "schedule anti-entropy less frequently" — "causes update
propagation to be less timely and increases the chance that an update
will arrive at an obsolete replica".  Because the DBVV protocol makes
sessions cheap, it can afford *frequent* sessions; and for the items
that matter most it offers out-of-bound copying.  This experiment
quantifies both knobs from the user's seat:

* a read/write mix runs on the event-driven simulator; every read is
  scored **stale** if the replica's user-visible value differs from the
  ground truth at that instant;
* the anti-entropy period sweeps from aggressive to lazy — stale-read
  fraction rises with the period (the paper's trade-off, measured);
* a second arm marks a small hot set and has readers fetch hot items
  out-of-bound before reading — hot reads become almost always fresh
  regardless of the schedule, at a per-read cost that is O(1) (section
  5.2), while cold reads keep the scheduled behaviour.

This experiment is an extension of the paper's evaluation (the paper
states the trade-off qualitatively); it exercises only mechanisms the
paper defines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.event_sim import EventDrivenSimulation, NodeSchedule
from repro.core.protocol import DBVVProtocolNode
from repro.errors import ProtocolStateError
from repro.experiments.common import make_items
from repro.metrics.reporting import Table
from repro.workload.generators import ReadEvent, ReadWriteMix

__all__ = ["E9Row", "run_arm", "run", "report", "main"]

DEFAULT_PERIODS = (2.0, 5.0, 10.0, 20.0)
DEFAULT_NODES = 4
DEFAULT_ITEMS = 60
DEFAULT_EVENTS = 600
DEFAULT_HOT_COUNT = 6
EVENT_SPACING = 0.5


@dataclass(frozen=True)
class E9Row:
    """Stale-read fractions for one (period, out-of-bound policy) point."""

    period: float
    oob_hot_reads: bool
    reads: int
    stale_reads: int
    hot_reads: int
    stale_hot_reads: int
    oob_fetches: int

    @property
    def stale_fraction(self) -> float:
        return self.stale_reads / self.reads if self.reads else 0.0

    @property
    def stale_hot_fraction(self) -> float:
        return self.stale_hot_reads / self.hot_reads if self.hot_reads else 0.0


def run_arm(
    period: float,
    oob_hot_reads: bool,
    n_nodes: int = DEFAULT_NODES,
    n_items: int = DEFAULT_ITEMS,
    n_events: int = DEFAULT_EVENTS,
    hot_count: int = DEFAULT_HOT_COUNT,
    seed: int = 23,
) -> E9Row:
    """One configuration: fixed anti-entropy period, optional OOB reads."""
    items = make_items(n_items)
    hot_items = set(items[:hot_count])
    sim = EventDrivenSimulation(
        lambda node_id, counters: DBVVProtocolNode(
            node_id, n_nodes, items, counters=counters
        ),
        n_nodes,
        items,
        schedules=[NodeSchedule(period=period, jitter=0.2)] * n_nodes,
        seed=seed,
    )
    mix = ReadWriteMix(items, n_nodes, seed=seed, read_fraction=0.7)

    reads = stale = hot_reads = stale_hot = fetches = 0
    for idx, event in enumerate(mix.generate(n_events)):
        at = (idx + 1) * EVENT_SPACING
        if isinstance(event, ReadEvent):
            # Reads execute as timed events so they interleave with the
            # anti-entropy sessions exactly like updates do.
            def do_read(event=event):
                nonlocal reads, stale, hot_reads, stale_hot, fetches
                node = sim.nodes[event.node]
                if not isinstance(node, DBVVProtocolNode):
                    raise ProtocolStateError("DBVVProtocolNode", node)
                if oob_hot_reads and event.item in hot_items:
                    # Fetch from the item's single writer — the replica
                    # that is always current for it (a real deployment
                    # knows where its key data is mastered).
                    donor_id = mix._writer.owner_of(event.item)
                    if donor_id != event.node:
                        donor = sim.nodes[donor_id]
                        if not isinstance(donor, DBVVProtocolNode):
                            raise ProtocolStateError("DBVVProtocolNode", donor)
                        node.fetch_out_of_bound(event.item, donor, sim.network)
                        fetches += 1
                value = node.read(event.item)
                fresh = value == sim.ground_truth.value(event.item)
                reads += 1
                stale += 0 if fresh else 1
                if event.item in hot_items:
                    hot_reads += 1
                    stale_hot += 0 if fresh else 1

            sim.loop.schedule_at(at, do_read)
        else:
            sim.schedule_update(at, event.node, event.item, event.op)
    sim.run_until((n_events + 2) * EVENT_SPACING)
    return E9Row(
        period=period,
        oob_hot_reads=oob_hot_reads,
        reads=reads,
        stale_reads=stale,
        hot_reads=hot_reads,
        stale_hot_reads=stale_hot,
        oob_fetches=fetches,
    )


def run(
    periods: tuple[float, ...] = DEFAULT_PERIODS,
    seed: int = 23,
) -> list[E9Row]:
    rows = []
    for period in periods:
        rows.append(run_arm(period, oob_hot_reads=False, seed=seed))
        rows.append(run_arm(period, oob_hot_reads=True, seed=seed))
    return rows


def report(rows: list[E9Row]) -> Table:
    table = Table(
        "E9 — stale-read fraction vs anti-entropy period "
        f"({DEFAULT_HOT_COUNT} hot items; OOB arm fetches hot items "
        "out-of-bound before reading)",
        ["period", "OOB hot reads?", "stale reads", "stale hot reads",
         "OOB fetches"],
    )
    for row in rows:
        table.add_row([
            row.period,
            "yes" if row.oob_hot_reads else "no",
            f"{row.stale_fraction:.1%}",
            f"{row.stale_hot_fraction:.1%}",
            row.oob_fetches,
        ])
    return table


def main() -> None:
    report(run()).print()


if __name__ == "__main__":
    main()
