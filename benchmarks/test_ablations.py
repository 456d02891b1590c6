"""Ablation benches for the design choices DESIGN.md section 5 calls out.

* IsSelected flags vs a hash set for building the item set S: both
  O(m) (the paper presents the flag as the way to avoid any scan of the
  database, not as an asymptotic win) — measured side by side.
* One-record-per-item rule: covered by E3's bench
  (`test_e3_log_bound.py`); here we add the end-to-end effect on a
  propagation session.
* Operation shipping vs whole-value copying (paper section 2's two
  propagation methods): bytes per session when updates are small
  patches on large items.
"""

import pytest

from repro.cluster.network import SimulatedNetwork
from repro.core.delta import DeltaEpidemicNode
from repro.core.log_vector import LogComponent
from repro.core.node import EpidemicNode
from repro.experiments.ablations import build_item_set_with_set
from repro.experiments.common import make_items
from repro.metrics.reporting import Table
from repro.obs import OverheadCounters
from repro.substrate.operations import BytePatch, Put

M_RECORDS = 2_000


def build_tail(m: int):
    log = LogComponent(origin=0)
    for seqno in range(1, m + 1):
        log.add(f"item-{seqno % (m // 2):05d}", seqno)
    return log.tail_after(0)


def test_bench_dedup_with_flags(benchmark):
    """The paper's IsSelected mechanism, isolated: flag items while
    walking the records, then reset the flags of the selected set."""
    tail = build_tail(M_RECORDS)

    class _Flagged:
        __slots__ = ("is_selected",)

        def __init__(self):
            self.is_selected = False

    flags = {item: _Flagged() for item, _seqno in tail}

    def flag_dedup():
        selected = []
        for item, _seqno in tail:
            entry = flags[item]
            if not entry.is_selected:
                entry.is_selected = True
                selected.append(item)
        for item in selected:
            flags[item].is_selected = False
        return selected

    benchmark(flag_dedup)


def test_bench_dedup_with_set(benchmark):
    """The ablation: a hash set instead of the flags."""
    tail = build_tail(M_RECORDS)
    benchmark(lambda: build_item_set_with_set(tail))


@pytest.mark.parametrize("mode", ["whole-value", "operation-shipping"])
def test_bench_patch_propagation_modes(benchmark, mode):
    """10 small patches on a 64 KiB item: whole-value copying ships the
    64 KiB; operation shipping ships ~10 patches."""
    items = make_items(50)
    big = b"x" * 65_536
    cls = EpidemicNode if mode == "whole-value" else DeltaEpidemicNode

    def setup():
        source = cls(0, 2, items)
        recipient = cls(1, 2, items)
        source.update(items[0], Put(big))
        recipient.pull_from(source)
        for k in range(10):
            source.update(items[0], BytePatch(k * 100, b"patched!"))
        return (recipient, source), {}

    def session(recipient, source):
        recipient.pull_from(source)

    benchmark.pedantic(session, setup=setup, rounds=10)


def test_regenerate_ablation_table(benchmark):
    """Bytes on the wire for the patch workload, both modes."""

    def run():
        items = make_items(50)
        big = b"x" * 65_536
        rows = []
        for mode, cls in (
            ("whole-value", EpidemicNode),
            ("operation-shipping", DeltaEpidemicNode),
        ):
            traffic = OverheadCounters()
            transport = SimulatedNetwork(2, counters=traffic)
            source = cls(0, 2, items)
            recipient = cls(1, 2, items)
            source.update(items[0], Put(big))
            # Baseline transfer of the big value (both modes pay this).
            request = transport.deliver(1, 0, recipient.make_propagation_request())
            reply = transport.deliver(0, 1, source.send_propagation(request))
            recipient.accept_propagation(reply)
            traffic.reset()
            for k in range(10):
                source.update(items[0], BytePatch(k * 100, b"patched!"))
            request = transport.deliver(1, 0, recipient.make_propagation_request())
            reply = transport.deliver(0, 1, source.send_propagation(request))
            recipient.accept_propagation(reply)
            assert recipient.read(items[0]) == source.read(items[0])
            rows.append((mode, traffic.bytes_sent))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "Ablation — propagating 10 small patches to a 64 KiB item "
        "(paper section 2's two propagation methods)",
        ["mode", "bytes on wire"],
    )
    for mode, bytes_sent in rows:
        table.add_row([mode, bytes_sent])
    table.print()
    by_mode = dict(rows)
    assert by_mode["operation-shipping"] < by_mode["whole-value"] / 50
