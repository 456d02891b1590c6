"""The four workloads.  Names are permanent; a later issue states its
claim as ``<metric>`` on ``<workload>``.

Every workload is two nodes and runs the same phases each round (put,
get, idle, burst, mixed — see ``bench.py``); they differ in which layer
does most of the work.  Counts per round and rounds per incarnation are
fixed, sized on the sizing box so that the rounds of a run (three
incarnations) take about ``run_seconds``.  Counts that write at node 0 are
multiples of 256 so that the journal's every-256-commits checkpoint falls
at the same place in every round, which keeps the exact counts exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["Workload", "WORKLOADS", "smoke_variant"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    durable: bool
    n_items: int
    value_bytes: int
    #: Connections to node 0 that share the put and get phases (disjoint
    #: key halves when there are two).
    writers: int
    #: Items one burst writes and the pull after it must adopt.
    burst_m: int
    puts: int
    gets: int
    idle_syncs: int
    bursts: int
    mixed_ops: int
    #: Rounds per incarnation.
    rounds: int

    @property
    def items(self) -> tuple[str, ...]:
        return tuple(f"k{i:05d}" for i in range(self.n_items))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mem_small_kv",
            why="in-memory, 256 small items: fixed per-request cost (JSON framing, asyncio, "
            "validation, EpidemicNode.update) is all the work; durable and codec changes "
            "must show no change here",
            durable=False, n_items=256, value_bytes=16, writers=1, burst_m=256,
            puts=4096, gets=4096, idle_syncs=512, bursts=8, mixed_ops=4096, rounds=3,
        ),
        Workload(
            name="durable_large_store",
            why="fsync per put and an O(N) text checkpoint of 8192 items every 256 commits: "
            "repro.durable and substrate.persistence do most of the work, and recovery is "
            "WAL scan + replay of a whole-store adoption",
            durable=True, n_items=8192, value_bytes=64, writers=1, burst_m=256,
            puts=1024, gets=2048, idle_syncs=256, bursts=2, mixed_ops=1024, rounds=2,
        ),
        Workload(
            name="propagate_bulk_values",
            why="in-memory, 1 KiB values, 1024-item (1 MiB) replies: reply build, repro.wire "
            "encode/decode, framing, reply validation and accept_propagation dominate; the "
            "client path is small",
            durable=False, n_items=2048, value_bytes=1024, writers=1, burst_m=1024,
            puts=2048, gets=2048, idle_syncs=256, bursts=2, mixed_ops=2048, rounds=3,
        ),
        Workload(
            name="durable_two_writers",
            why="durable, small store, two connections writing disjoint key halves: the one place "
            "cross-client group commit can push fsyncs per put below 1; fsync, not the "
            "checkpoint, dominates",
            durable=True, n_items=512, value_bytes=256, writers=2, burst_m=256,
            puts=1024, gets=2048, idle_syncs=256, bursts=2, mixed_ops=1024, rounds=3,
        ),
    )
}  # fmt: skip


def smoke_variant(workload: Workload) -> Workload:
    """Tiny counts for ``--smoke``: same phases, same checks, seconds not
    minutes.  Node-0 write counts stay multiples of 256."""
    return replace(
        workload,
        n_items=min(workload.n_items, 512),
        burst_m=min(workload.burst_m, 256),
        puts=256,
        gets=256,
        idle_syncs=32,
        bursts=1,
        mixed_ops=512,
        rounds=2,
    )
