"""The log vector (paper section 4.2, Figure 1).

Node ``i`` keeps a *log vector* ``L_i`` with one component ``L_i[j]`` per
origin server ``j``.  Component ``L_i[j]`` records, in origin order, the
updates performed by ``j`` (to any item) that are reflected at ``i``.  A
record is the pair ``(x, m)``: the item name and the sequence number the
update had at its origin (the origin's ``V_jj`` right after the update).
Records carry no operation payload — they only say "item x changed" — so
they are constant-size.

Two properties make the whole protocol O(m):

1. **One record per item per component.**  When a record ``(x, m)`` is
   added to ``L_i[j]``, the previous record for ``x`` (if any) is
   unlinked in O(1) via the per-item pointer ``P_j(x)`` (paper's
   ``AddLogRecord``).  Hence ``|L_i[j]| <= N`` and the whole log vector
   never exceeds ``n * N`` records, no matter how many updates happen.

2. **Tails identify exactly the missing items.**  Because records sit in
   increasing sequence-number order, the suffix of ``L_j[k]`` with
   ``m > V_i[k]`` names precisely the items for which ``i`` misses
   updates originated at ``k`` — and it is found by walking backwards
   from the tail, touching only the records that will be sent.

Each component is one :class:`collections.OrderedDict` mapping item to
seqno: Figure 1's doubly linked list and its ``P`` pointer map in one C
structure (a hash map whose live entries sit on a doubly linked list).
Re-adding an item moves its entry to the tail, so one record per item
holds by construction, and the reversed walk visits only live entries.
A plain ``dict`` would not do: it leaves a hole where each re-added
item used to be and compacts only on resize, so a reversed walk could
cross O(N) holes to ship m records.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, KeysView, ValuesView

from repro.errors import InvariantViolation, UnknownNodeError
from repro.obs import NULL_COUNTERS, OverheadCounters

__all__ = ["LogComponent", "LogVector", "LOG_RECORD_WIRE_SIZE"]

LOG_RECORD_WIRE_SIZE = 16
"""Modelled wire size of one (item, seqno) record: two 8-byte words.

Regular log records are constant-size by design (paper section 4.2); the
byte accounting in the message layer uses this constant.
"""


class LogComponent:
    """One component ``L_i[j]``: updates from a single origin server.

    Implements the paper's ``AddLogRecord`` in O(1) and suffix extraction
    in time linear in the suffix length.  A record is an ``(item,
    seqno)`` pair; the records sit in strictly increasing ``seqno``
    order (checked by :meth:`check_invariants`), one per item.
    """

    __slots__ = ("origin", "_by_item")

    def __init__(self, origin: int) -> None:
        self.origin = origin
        # P_j(x) and the list in one: item -> seqno, oldest first.
        self._by_item: OrderedDict[str, int] = OrderedDict()

    def __len__(self) -> int:
        return len(self._by_item)

    def pairs(self) -> list[tuple[str, int]]:
        """All records as ``(item, seqno)`` pairs, head to tail."""
        return list(self._by_item.items())

    def keys(self) -> KeysView[str]:
        """The records' items, head to tail (a live view)."""
        return self._by_item.keys()

    def values(self) -> ValuesView[int]:
        """The records' seqnos, head to tail (a live view)."""
        return self._by_item.values()

    @property
    def max_seqno(self) -> int:
        """Sequence number of the newest record, or 0 when empty."""
        for seqno in reversed(self._by_item.values()):
            return seqno
        return 0

    def add(
        self,
        item: str,
        seqno: int,
        counters: OverheadCounters = NULL_COUNTERS,
    ) -> None:
        """The paper's ``AddLogRecord``: the record for ``item`` becomes
        ``(item, seqno)`` at the tail, replacing any previous one, in O(1).

        ``seqno`` must exceed the current tail's — log components only
        ever grow at the high end (local updates carry the incremented
        ``V_ii``; propagation tails carry seqnos above the recipient's
        ``V_i[origin]``, which bounds everything already in the log).
        """
        by_item = self._by_item
        for newest in reversed(by_item.values()):
            if seqno <= newest:
                raise ValueError(
                    f"log component for origin {self.origin} is at seqno "
                    f"{newest}; refusing out-of-order add of ({item!r}, {seqno})"
                )
            break
        if counters is not NULL_COUNTERS:
            counters.log_records_added += 1
            if item in by_item:
                counters.log_records_evicted += 1
        by_item[item] = seqno
        by_item.move_to_end(item)

    def restore(self, pairs: Iterable[tuple[str, int]]) -> None:
        """Fill an empty component with ``pairs`` in one bulk call: a
        restored snapshot's records, already checked to be oldest first
        with strictly increasing seqnos and one per item."""
        if self._by_item:
            raise ValueError(
                f"log component for origin {self.origin} is not empty"
            )
        self._by_item.update(pairs)

    def discard_item(self, item: str) -> bool:
        """Drop the record for ``item`` if present; True when dropped.

        Used when a conflicting item's records are stripped (conflicting
        copies are frozen until resolution, so their log entries must not
        keep flowing).
        """
        return self._by_item.pop(item, None) is not None

    def tail_after(
        self,
        threshold: int,
        counters: OverheadCounters = NULL_COUNTERS,
    ) -> list[tuple[str, int]]:
        """The ``(item, seqno)`` records with ``seqno > threshold``,
        oldest first.

        Walks backwards from the tail so the cost is linear in the number
        of records *returned*, never in the component size — this is what
        keeps ``SendPropagation`` at O(m) (paper section 6).
        """
        selected = []
        for item, seqno in reversed(self._by_item.items()):
            if seqno <= threshold:
                break
            selected.append((item, seqno))
        selected.reverse()
        if counters is not NULL_COUNTERS:
            counters.log_records_examined += len(selected)
        return selected

    def check_invariants(self) -> None:
        """Verify that seqnos strictly increase from head to tail; raises
        :class:`~repro.errors.InvariantViolation` on breakage (so the
        check survives ``python -O``, unlike a bare ``assert``).

        Used by tests and the run-time sanitizer.  One record per item
        and a pointer map that agrees with the list hold by construction.
        """
        last_seqno = 0
        for seqno in self._by_item.values():
            if seqno <= last_seqno:
                raise InvariantViolation(
                    f"non-increasing seqno {seqno} after {last_seqno} "
                    f"in L[{self.origin}]"
                )
            last_seqno = seqno


class LogVector:
    """The full log vector ``L_i``: one :class:`LogComponent` per origin."""

    __slots__ = ("_components",)

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError(f"replica set must be non-empty, got {n_nodes}")
        self._components = [LogComponent(origin) for origin in range(n_nodes)]

    def __len__(self) -> int:
        """Total number of records across all components (<= n * N)."""
        return sum(len(component) for component in self._components)

    def __getitem__(self, origin: int) -> LogComponent:
        try:
            return self._components[origin]
        except IndexError:
            raise UnknownNodeError(origin) from None

    @property
    def n_nodes(self) -> int:
        return len(self._components)

    def components(self) -> list[LogComponent]:
        """All components, indexed by origin."""
        return list(self._components)

    def add(
        self,
        origin: int,
        item: str,
        seqno: int,
        counters: OverheadCounters = NULL_COUNTERS,
    ) -> None:
        """AddLogRecord against the component for ``origin``."""
        self[origin].add(item, seqno, counters)

    def restore(self, origin: int, pairs: Iterable[tuple[str, int]]) -> None:
        """:meth:`LogComponent.restore` against the component for ``origin``."""
        self[origin].restore(pairs)

    def discard_item(self, item: str) -> int:
        """Drop ``item``'s record from every component; returns how many
        records were dropped (0..n).
        """
        return sum(1 for c in self._components if c.discard_item(item))

    def check_invariants(self) -> None:
        """Run :meth:`LogComponent.check_invariants` on every component."""
        for component in self._components:
            component.check_invariants()
