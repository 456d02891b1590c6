"""The replica scaffold every baseline shares.

* :class:`ValueStoreNode` — the ``{item: value}`` store and its
  :class:`~repro.interfaces.ContentDigest`: reads, the unknown-item
  check, the one value write that marks the digest, and the
  fingerprint/version introspection the simulator compares.  A
  baseline adds only its own metadata and its ``exchange``.
* :class:`LWWRecord` — the one last-writer-wins update record, the
  resulting value of an item stamped ``(seqno, origin)``; Oracle push,
  Wuu–Bernstein and Agrawal–Malpani ship it, and Lotus ships its
  documents in it.
* :class:`LWWNode` — the per-item stamps and the last-writer-wins
  rule: a record installs only over a lower stamp.

Which comparisons a protocol charges to ``seqno_comparisons`` stays
with its call sites: Oracle and Agrawal–Malpani count their LWW
comparison, Wuu–Bernstein does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.messages import WORD_SIZE, string_wire_size
from repro.errors import UnknownItemError
from repro.interfaces import ContentDigest, ProtocolNode
from repro.obs import NULL_COUNTERS, OverheadCounters

__all__ = ["LWWRecord", "ValueStoreNode", "LWWNode"]


@dataclass(frozen=True, slots=True)
class LWWRecord:
    """One update: the resulting value of ``item``, stamped with its
    writer's sequence number (LWW order: ``(seqno, origin)``)."""

    item: str
    value: bytes
    seqno: int
    origin: int

    def stamp(self) -> tuple[int, int]:
        return (self.seqno, self.origin)

    def wire_size(self) -> int:
        """The named value plus its ``(seqno, origin)`` stamp."""
        return 2 * WORD_SIZE + string_wire_size(self.item) + len(self.value)


class ValueStoreNode(ProtocolNode):
    """A replica whose durable state is one value per item."""

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        items: list[str] | tuple[str, ...],
        counters: OverheadCounters = NULL_COUNTERS,
    ):
        super().__init__(node_id, n_nodes, counters)
        self._values: dict[str, bytes] = {name: b"" for name in items}
        self._digest = ContentDigest()

    def read(self, item: str) -> bytes:
        try:
            return self._values[item]
        except KeyError:
            raise UnknownItemError(item) from None

    def _write(self, item: str, value: bytes) -> None:
        """Install ``value`` as ``item``'s durable value."""
        self._digest.mark(item)
        self._values[item] = value

    def state_fingerprint(self) -> dict[str, bytes]:
        return dict(self._values)

    def state_digest(self) -> int:
        return self._digest.token(self.fingerprint_value)

    def fingerprint_value(self, item: str) -> bytes:
        return self._values.get(item, b"")


class LWWNode(ValueStoreNode):
    """A value store whose items carry last-writer-wins stamps."""

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        items: list[str] | tuple[str, ...],
        counters: OverheadCounters = NULL_COUNTERS,
    ):
        super().__init__(node_id, n_nodes, items, counters)
        # The LWW stamp of each item's current value.
        self._stamps: dict[str, tuple[int, int]] = {
            name: (0, -1) for name in items
        }

    def _write_local(self, item: str, value: bytes, counter: int) -> LWWRecord:
        """Install a local write of ``item`` and return its record.

        Lamport-style stamp: the seqno exceeds both ``counter`` (the
        writer's own latest seqno) *and* the seqno of the stamp being
        overwritten.  Stamping with the bare counter lets a write made
        after adopting a higher stamp install a *smaller* one — the
        writer then keeps its value while every peer's LWW rule rejects
        the record, and the replicas never converge (found by
        ``python -m repro.explore --protocol wuu-bernstein``, minimized
        to update@1, session@0<-1, update@0)."""
        record = LWWRecord(
            item, value, max(counter, self._stamps[item][0]) + 1, self.node_id
        )
        self._write(item, value)
        self._stamps[item] = record.stamp()
        return record

    def _install(self, record: LWWRecord) -> bool:
        """The LWW rule: install ``record`` when its stamp is higher
        than the item's; True when it was."""
        if record.stamp() > self._stamps[record.item]:
            self._write(record.item, record.value)
            self._stamps[record.item] = record.stamp()
            self.counters.items_copied += 1
            return True
        return False
