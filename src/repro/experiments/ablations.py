"""Ablation components: the paper's mechanisms, disabled.

DESIGN.md section 5 calls out the load-bearing design choices; each gets
an ablated variant here so the benchmarks can show what the mechanism
buys:

* :class:`AppendOnlyLog` — the log *without* the one-record-per-item
  rule of AddLogRecord.  Records accumulate forever; the log grows with
  update volume instead of being bounded by n·N, and a propagation tail
  can contain many records per item (all but the last redundant).

* :func:`build_item_set_with_set` — SendPropagation's item-set S built
  with a hash set instead of the paper's IsSelected flags.  Same O(m)
  asymptotics (both are measured), demonstrating the flag trick is a
  constant-factor/locality device, not an asymptotic one — exactly how
  the paper presents it (section 6).
"""

from __future__ import annotations

from repro.obs import NULL_COUNTERS, OverheadCounters

__all__ = ["AppendOnlyLog", "build_item_set_with_set"]


class AppendOnlyLog:
    """A per-origin update log that never evicts superseded records.

    Interface-compatible with the pieces of
    :class:`~repro.core.log_vector.LogComponent` the experiments use
    (``add``, ``tail_after``, ``__len__``), so E3's ablation bench swaps
    it in directly.  Records are plain ``(item, seqno)`` pairs.
    """

    __slots__ = ("origin", "_records")

    def __init__(self, origin: int):
        self.origin = origin
        self._records: list[tuple[str, int]] = []

    def __len__(self) -> int:
        return len(self._records)

    def add(
        self,
        item: str,
        seqno: int,
        counters: OverheadCounters = NULL_COUNTERS,
    ) -> None:
        """Append without eviction — unbounded growth."""
        if self._records and seqno <= self._records[-1][1]:
            raise ValueError(
                f"out-of-order append: {seqno} after {self._records[-1][1]}"
            )
        self._records.append((item, seqno))
        counters.log_records_added += 1

    def tail_after(
        self,
        threshold: int,
        counters: OverheadCounters = NULL_COUNTERS,
    ) -> list[tuple[str, int]]:
        """All records above ``threshold`` — including the redundant
        older records for items that were updated again later, which is
        precisely the cost the one-record rule eliminates."""
        selected: list[tuple[str, int]] = []
        idx = len(self._records) - 1
        while idx >= 0 and self._records[idx][1] > threshold:
            counters.log_records_examined += 1
            selected.append(self._records[idx])
            idx -= 1
        selected.reverse()
        return selected


def build_item_set_with_set(
    records: list[tuple[str, int]], counters: OverheadCounters = NULL_COUNTERS
) -> list[str]:
    """Dedup a tail's item references with a hash set (ablation of the
    IsSelected-flag trick).  Returns the distinct item names in first-
    reference order."""
    seen: set[str] = set()
    ordered: list[str] = []
    for item, _seqno in records:
        counters.bump("set_dedup_probes")
        if item not in seen:
            seen.add(item)
            ordered.append(item)
    return ordered
