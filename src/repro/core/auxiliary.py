"""The auxiliary log (paper section 4.4).

When a node copies an item out-of-bound it stops updating the regular
copy and starts updating the *auxiliary* copy instead; every such update
is remembered in the auxiliary log as a record

    ``(m, x, v_i(x), op)``

where ``v_i(x)`` is the auxiliary copy's IVV at the time of the update
*excluding* the update itself, and ``op`` is enough information to re-do
the update.  Unlike regular log records these carry the operation payload
— but they never cross the network; IntraNodePropagation (paper Fig. 4)
replays them locally onto the regular copy once it has caught up to the
recorded pre-IVV.

Required operations (paper section 4.4): ``Earliest(x)`` in O(1) and
removal of a record from the middle of the log in O(1).  We keep one
global doubly linked list (insertion order, for inspection and size
accounting) and a per-item FIFO chain; since IntraNodePropagation only
ever consumes an item's records oldest-first, the per-item chain is
singly linked with head/tail pointers.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.version_vector import VersionVector
from repro.errors import InvariantViolation
from repro.substrate.operations import UpdateOperation

__all__ = ["AuxLogRecord", "AuxiliaryLog"]


class AuxLogRecord:
    """One auxiliary log record; see the module docstring for the fields.

    ``seq`` is a node-local monotonic insertion number (the paper's
    ``m``); ``pre_ivv`` is the auxiliary copy's IVV *before* the update.
    """

    __slots__ = ("seq", "item", "pre_ivv", "op", "prev", "next", "item_next")

    def __init__(self, seq: int, item: str, pre_ivv: VersionVector, op: UpdateOperation):
        self.seq = seq
        self.item = item
        self.pre_ivv = pre_ivv
        self.op = op
        self.prev: AuxLogRecord | None = None
        self.next: AuxLogRecord | None = None
        self.item_next: AuxLogRecord | None = None

    def __repr__(self) -> str:
        return f"AuxLogRecord(seq={self.seq}, item={self.item!r}, op={self.op!r})"


class AuxiliaryLog:
    """AUX_i: updates applied to out-of-bound copies, awaiting replay."""

    __slots__ = ("_head", "_tail", "_item_head", "_item_tail", "_size", "_next_seq")

    def __init__(self) -> None:
        self._head: AuxLogRecord | None = None
        self._tail: AuxLogRecord | None = None
        self._item_head: dict[str, AuxLogRecord] = {}
        self._item_tail: dict[str, AuxLogRecord] = {}
        self._size = 0
        self._next_seq = 1

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[AuxLogRecord]:
        node = self._head
        while node is not None:
            yield node
            node = node.next

    def append(
        self, item: str, pre_ivv: VersionVector, op: UpdateOperation
    ) -> AuxLogRecord:
        """Record an update just applied to ``item``'s auxiliary copy.

        ``pre_ivv`` is copied defensively: the caller is about to
        increment the live auxiliary IVV and the record must keep the
        pre-update snapshot.
        """
        record = AuxLogRecord(self._next_seq, item, pre_ivv.copy(), op)
        self._next_seq += 1
        # Global list tail.
        record.prev = self._tail
        if self._tail is not None:
            self._tail.next = record
        else:
            self._head = record
        self._tail = record
        # Per-item FIFO tail.
        tail = self._item_tail.get(item)
        if tail is not None:
            tail.item_next = record
        else:
            self._item_head[item] = record
        self._item_tail[item] = record
        self._size += 1
        return record

    def earliest(self, item: str) -> AuxLogRecord | None:
        """``Earliest(x)``: the oldest pending record for ``item``, O(1)."""
        return self._item_head.get(item)

    def has_records(self, item: str) -> bool:
        """True while any replayable update for ``item`` is pending."""
        return item in self._item_head

    def pop_earliest(self, item: str) -> AuxLogRecord:
        """Remove and return ``Earliest(item)`` in O(1).

        This is the "remove a record from the middle of the log"
        operation: the item's earliest record can sit anywhere in the
        global list.
        """
        record = self._item_head.get(item)
        if record is None:
            raise KeyError(f"no auxiliary records for item {item!r}")
        # Per-item chain.
        if record.item_next is not None:
            self._item_head[item] = record.item_next
        else:
            del self._item_head[item]
            del self._item_tail[item]
        # Global chain.
        if record.prev is not None:
            record.prev.next = record.next
        else:
            self._head = record.next
        if record.next is not None:
            record.next.prev = record.prev
        else:
            self._tail = record.prev
        record.prev = record.next = record.item_next = None
        self._size -= 1
        return record

    def discard_item(self, item: str) -> int:
        """Drop every pending record for ``item``; returns the count.

        Used by administrative conflict resolution: once the application
        rewrites an item, its stale deferred updates must not replay.
        """
        dropped = 0
        while self.has_records(item):
            self.pop_earliest(item)
            dropped += 1
        return dropped

    def check_invariants(self) -> None:
        """Verify global/per-item chain consistency; raises
        :class:`~repro.errors.InvariantViolation` on breakage (survives
        ``python -O``).  Used by tests and the run-time sanitizer."""
        seen = 0
        per_item_order: dict[str, int] = {}
        node = self._head
        prev: AuxLogRecord | None = None
        while node is not None:
            if node.prev is not prev:
                raise InvariantViolation("broken global prev link")
            last_seq = per_item_order.get(node.item)
            if last_seq is not None and node.seq <= last_seq:
                raise InvariantViolation(
                    f"per-item order violated for {node.item!r}"
                )
            per_item_order[node.item] = node.seq
            seen += 1
            prev = node
            node = node.next
        if self._tail is not prev:
            raise InvariantViolation("stale global tail")
        if seen != self._size:
            raise InvariantViolation(f"size {self._size} != walked {seen}")
        for item, head in self._item_head.items():
            if head is None:
                raise InvariantViolation(f"null per-item head for {item!r}")
            walked_tail = head
            while walked_tail.item_next is not None:
                walked_tail = walked_tail.item_next
            if self._item_tail[item] is not walked_tail:
                raise InvariantViolation(
                    f"stale per-item tail for {item!r}"
                )
