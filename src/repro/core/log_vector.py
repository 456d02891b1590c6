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

The linked structure below is a direct transcription of Figure 1: a
doubly linked list with a tail pointer plus the ``P`` pointer map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import InvariantViolation, UnknownNodeError
from repro.obs import NULL_COUNTERS, OverheadCounters

__all__ = ["LogRecord", "LogComponent", "LogVector", "LOG_RECORD_WIRE_SIZE"]

LOG_RECORD_WIRE_SIZE = 16
"""Modelled wire size of one (item, seqno) record: two 8-byte words.

Regular log records are constant-size by design (paper section 4.2); the
byte accounting in the message layer uses this constant.
"""


@dataclass(eq=False)
class LogRecord:
    """One ``(x, m)`` entry of a log component.

    ``item``   — name of the updated data item.
    ``seqno``  — the origin's own-update count at the time of the update,
                 *including* this update (the value of ``V_jj``).

    ``prev``/``next`` are the intrusive doubly-linked-list hooks; they
    belong to the :class:`LogComponent` that owns the record and must not
    be touched by other code.  Equality is identity equality on purpose:
    the same ``(item, seqno)`` pair may legitimately exist in the logs of
    different nodes, and list surgery needs object identity.
    """

    item: str
    seqno: int
    prev: "LogRecord | None" = None
    next: "LogRecord | None" = None

    def pair(self) -> tuple[str, int]:
        """The record's value ``(item, seqno)`` without the list hooks."""
        return (self.item, self.seqno)

    def __repr__(self) -> str:
        return f"LogRecord({self.item!r}, {self.seqno})"


class LogComponent:
    """One component ``L_i[j]``: updates from a single origin server.

    Implements the paper's ``AddLogRecord`` in O(1) and suffix extraction
    in time linear in the suffix length.  Maintains the invariants:

    * at most one record per item (checked by :meth:`check_invariants`),
    * records in strictly increasing ``seqno`` order.
    """

    __slots__ = ("origin", "_head", "_tail", "_by_item", "_size")

    def __init__(self, origin: int) -> None:
        self.origin = origin
        self._head: LogRecord | None = None
        self._tail: LogRecord | None = None
        # P_j(x): item name -> its (unique) record in this component.
        # A hash lookup is the Python equivalent of the paper's per-item
        # pointer array; both are O(1) per access.
        self._by_item: dict[str, LogRecord] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[LogRecord]:
        node = self._head
        while node is not None:
            yield node
            node = node.next

    def pairs(self) -> list[tuple[str, int]]:
        """All records as ``(item, seqno)`` pairs, head to tail."""
        return [record.pair() for record in self]

    @property
    def max_seqno(self) -> int:
        """Sequence number of the newest record, or 0 when empty."""
        return self._tail.seqno if self._tail is not None else 0

    def add(
        self,
        item: str,
        seqno: int,
        counters: OverheadCounters = NULL_COUNTERS,
    ) -> LogRecord:
        """The paper's ``AddLogRecord``: link a new record at the tail and
        unlink the previous record for the same item, all in O(1).

        ``seqno`` must exceed the current tail's — log components only
        ever grow at the high end (local updates carry the incremented
        ``V_ii``; propagation tails carry seqnos above the recipient's
        ``V_i[origin]``, which bounds everything already in the log).
        """
        if self._tail is not None and seqno <= self._tail.seqno:
            raise ValueError(
                f"log component for origin {self.origin} is at seqno "
                f"{self._tail.seqno}; refusing out-of-order add of "
                f"({item!r}, {seqno})"
            )
        record = LogRecord(item, seqno)
        self._link_tail(record)
        old = self._by_item.get(item)
        if old is not None:
            self._unlink(old)
        self._by_item[item] = record
        if counters is not NULL_COUNTERS:
            counters.log_records_added += 1
            if old is not None:
                counters.log_records_evicted += 1
        return record

    def discard_item(self, item: str) -> bool:
        """Drop the record for ``item`` if present; True when dropped.

        Used when a conflicting item's records are stripped (conflicting
        copies are frozen until resolution, so their log entries must not
        keep flowing).
        """
        record = self._by_item.pop(item, None)
        if record is None:
            return False
        self._unlink_only(record)
        return True

    def tail_after(
        self,
        threshold: int,
        counters: OverheadCounters = NULL_COUNTERS,
    ) -> list[LogRecord]:
        """Records with ``seqno > threshold``, oldest first.

        Walks backwards from the tail so the cost is linear in the number
        of records *returned*, never in the component size — this is what
        keeps ``SendPropagation`` at O(m) (paper section 6).
        """
        selected: list[LogRecord] = []
        node = self._tail
        while node is not None and node.seqno > threshold:
            selected.append(node)
            node = node.prev
        selected.reverse()
        if counters is not NULL_COUNTERS:
            counters.log_records_examined += len(selected)
        return selected

    def check_invariants(self) -> None:
        """Verify structural invariants; raises
        :class:`~repro.errors.InvariantViolation` on breakage (so the
        checks survive ``python -O``, unlike a bare ``assert``).

        Used by tests and the run-time sanitizer: one record per item,
        strictly increasing seqnos, pointer map consistent with list
        membership, size honest.
        """
        seen_items: set[str] = set()
        last_seqno = 0
        count = 0
        prev: LogRecord | None = None
        node = self._head
        while node is not None:
            if node.item in seen_items:
                raise InvariantViolation(
                    f"duplicate record for item {node.item!r} in L[{self.origin}]"
                )
            seen_items.add(node.item)
            if node.seqno <= last_seqno:
                raise InvariantViolation(
                    f"non-increasing seqno {node.seqno} after {last_seqno}"
                )
            last_seqno = node.seqno
            if self._by_item.get(node.item) is not node:
                raise InvariantViolation(
                    f"pointer map stale for item {node.item!r}"
                )
            if node.prev is not prev:
                raise InvariantViolation("broken prev link")
            prev = node
            count += 1
            node = node.next
        if self._tail is not prev:
            raise InvariantViolation("tail pointer stale")
        if count != self._size:
            raise InvariantViolation(f"size {self._size} != walked {count}")
        if count != len(self._by_item):
            raise InvariantViolation("pointer map has orphans")

    # -- list surgery ------------------------------------------------------

    def _link_tail(self, record: LogRecord) -> None:
        record.prev = self._tail
        record.next = None
        if self._tail is not None:
            self._tail.next = record
        else:
            self._head = record
        self._tail = record
        self._size += 1

    def _unlink(self, record: LogRecord) -> None:
        self._unlink_only(record)
        # _by_item already points at the replacement; nothing to fix here.

    def _unlink_only(self, record: LogRecord) -> None:
        if record.prev is not None:
            record.prev.next = record.next
        else:
            self._head = record.next
        if record.next is not None:
            record.next.prev = record.prev
        else:
            self._tail = record.prev
        record.prev = record.next = None
        self._size -= 1


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
    ) -> LogRecord:
        """AddLogRecord against the component for ``origin``."""
        return self[origin].add(item, seqno, counters)

    def discard_item(self, item: str) -> int:
        """Drop ``item``'s record from every component; returns how many
        records were dropped (0..n).
        """
        return sum(1 for c in self._components if c.discard_item(item))

    def check_invariants(self) -> None:
        """Run :meth:`LogComponent.check_invariants` on every component."""
        for component in self._components:
            component.check_invariants()
