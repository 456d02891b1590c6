"""E6 — out-of-bound copying: constant-time fetch, pay-per-use replay
(paper sections 5.2 and 6).

Claims under test:

* an out-of-bound copy costs O(1) beyond moving the item itself — no
  DBVV change, no log change, one IVV comparison;
* the deferred cost, IntraNodePropagation, is "linear in the number of
  accumulated updates" on the auxiliary copy — and only in that; items
  never copied out-of-bound pay nothing;
* the user-visible benefit: the fetching node reads the fresh value
  immediately, rounds before scheduled propagation would deliver it
  ("the ability to reduce the update propagation time for some key data
  items is important", section 1).

The sweep: node 1 copies one hot item out-of-bound from node 0, applies
``d`` local updates to it (all deferred into the auxiliary log), then a
scheduled propagation arrives and IntraNodePropagation replays.  We
measure the replay work as a function of ``d`` and verify the auxiliary
copy is discarded and the regular copy ends exactly equal to the
auxiliary lineage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.node import EpidemicNode
from repro.experiments.common import make_items
from repro.metrics.reporting import Table
from repro.obs import OverheadCounters
from repro.substrate.operations import Append, Put

__all__ = ["E6Row", "run_replay_sweep", "run_freshness", "report", "main"]

DEFAULT_DEFERRED = (0, 1, 4, 16, 64, 256)
DEFAULT_ITEMS = 500


@dataclass(frozen=True)
class E6Row:
    """Cost of one out-of-bound episode with ``deferred`` local updates."""

    deferred_updates: int
    oob_fetch_vv_comparisons: int
    replayed: int
    replay_work: int          # counters during AcceptPropagation + replay
    aux_discarded: bool
    values_match: bool        # regular copy ended identical to auxiliary


def run_episode(deferred: int, n_items: int = DEFAULT_ITEMS) -> E6Row:
    """One full out-of-bound episode at a two-node pair."""
    items = make_items(n_items)
    c0, c1 = OverheadCounters(), OverheadCounters()
    node0 = EpidemicNode(0, 2, items, counters=c0)
    node1 = EpidemicNode(1, 2, items, counters=c1)
    hot = items[0]

    node0.update(hot, Put(b"base:"))

    c1.reset()
    adopted = node1.copy_out_of_bound(hot, node0)
    assert adopted, "out-of-bound copy should adopt the newer value"
    fetch_comparisons = c1.vv_comparisons
    # O(1) beyond the item itself: no regular structures were touched.
    assert node1.dbvv.total() == 0
    assert len(node1.log) == 0

    expected = b"base:"
    for idx in range(deferred):
        op = Append(f"u{idx};".encode())
        node1.update(hot, op)
        expected = op.apply(expected)
    assert node1.read(hot) == expected
    assert len(node1.aux_log) == deferred

    c1.reset()
    outcome, intra = node1.pull_from(node0)
    entry = node1.store[hot]
    return E6Row(
        deferred_updates=deferred,
        oob_fetch_vv_comparisons=fetch_comparisons,
        replayed=intra.replayed,
        replay_work=c1.total_work() + c1.aux_records_replayed,
        aux_discarded=not entry.has_auxiliary,
        values_match=entry.value == expected,
    )


def run_replay_sweep(
    deferred_counts: tuple[int, ...] = DEFAULT_DEFERRED,
    n_items: int = DEFAULT_ITEMS,
) -> list[E6Row]:
    return [run_episode(d, n_items) for d in deferred_counts]


@dataclass(frozen=True)
class FreshnessResult:
    """Rounds a reader waits for a fresh value, with and without OOB."""

    with_oob_rounds: int
    without_oob_rounds: int


def run_freshness(chain_length: int = 5) -> FreshnessResult:
    """A chain topology where scheduled propagation needs ``chain_length
    - 1`` rounds to carry an update end-to-end; out-of-bound copying
    delivers it to the far end immediately."""
    items = make_items(10)
    hot = items[0]

    def fresh_chain() -> list[EpidemicNode]:
        return [
            EpidemicNode(k, chain_length, items) for k in range(chain_length)
        ]

    # Without OOB: update enters at node 0; each round node k pulls from
    # k-1; count rounds until the tail node reads the new value.
    nodes = fresh_chain()
    nodes[0].update(hot, Put(b"breaking-news"))
    without = 0
    while nodes[-1].read(hot) != b"breaking-news":
        without += 1
        # Tail-first session order: the update moves one hop per round,
        # as it would with concurrent sessions.
        for k in range(chain_length - 1, 0, -1):
            nodes[k].pull_from(nodes[k - 1])
        if without > chain_length:
            raise AssertionError("chain propagation failed to deliver")

    # With OOB: the tail node fetches the item directly, round zero.
    nodes = fresh_chain()
    nodes[0].update(hot, Put(b"breaking-news"))
    nodes[-1].copy_out_of_bound(hot, nodes[0])
    with_oob = 0 if nodes[-1].read(hot) == b"breaking-news" else -1
    assert with_oob == 0
    return FreshnessResult(with_oob_rounds=with_oob, without_oob_rounds=without)


def report(rows: list[E6Row], freshness: FreshnessResult) -> Table:
    table = Table(
        "E6 — out-of-bound episodes: replay cost tracks deferred updates "
        f"only (freshness: OOB reads new value after {freshness.with_oob_rounds} "
        f"rounds vs {freshness.without_oob_rounds} via scheduled propagation)",
        ["deferred d", "fetch vv-cmps", "replayed", "replay work",
         "aux dropped?", "value correct?"],
    )
    for row in rows:
        table.add_row([
            row.deferred_updates,
            row.oob_fetch_vv_comparisons,
            row.replayed,
            row.replay_work,
            "yes" if row.aux_discarded else "NO",
            "yes" if row.values_match else "NO",
        ])
    return table


def main() -> None:
    report(run_replay_sweep(), run_freshness()).print()


if __name__ == "__main__":
    main()
