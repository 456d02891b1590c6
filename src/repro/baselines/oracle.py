"""Baseline: Oracle Symmetric Replication-style deferred push
(paper section 8.2).

"Every server keeps track of the updates it performs and periodically
ships them to all other servers.  No forwarding of updates is
performed."  The model:

* a local update appends an **update record** to the node's deferred
  queue (we ship the resulting whole value, stamped ``(seqno, origin)``
  — a last-writer-wins register, which is how timestamp-based
  symmetric replication resolves concurrent writes);
* a push round sends, to each peer, the records that peer has not
  acknowledged yet (per-peer cursors into the queue);
* recipients apply records **but never forward them** — the defining
  property, and the vulnerability: if the originator crashes after
  reaching only some peers, the rest stay stale until the originator is
  repaired, no matter how much the survivors talk to each other.  No
  replica-state comparison happens, ever, so the protocol cannot even
  *detect* the staleness (and cannot detect conflicts — LWW silently
  drops the losing write).

In the absence of failures the performance is excellent — only changed
items move, with constant metadata — which is exactly the paper's
assessment; E5 measures what failures cost, and E8 shows the DBVV
protocol matches the no-failure traffic while keeping epidemic repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.messages import (
    WORD_SIZE,
    lww_record_wire_size,
    payload_list_wire_size,
)
from repro.errors import ProtocolStateError, UnknownItemError
from repro.interfaces import (
    ContentDigest,
    ProtocolNode,
    StateVersion,
    SyncStats,
    Transport,
)
from repro.obs import NULL_COUNTERS, OverheadCounters
from repro.substrate.operations import UpdateOperation

if TYPE_CHECKING:
    from repro.cluster.failures import CrashAfterPartialPush

__all__ = ["UpdateRecord", "OraclePushNode"]


@dataclass(frozen=True, slots=True)
class UpdateRecord:
    """One deferred update: the resulting value of ``item``, stamped
    with the originator's update counter (LWW order: (seqno, origin))."""

    item: str
    value: bytes
    seqno: int
    origin: int

    def stamp(self) -> tuple[int, int]:
        return (self.seqno, self.origin)

    def wire_size(self) -> int:
        return lww_record_wire_size(self.item, self.value)


@dataclass(frozen=True, slots=True)
class _PushBatch:
    source: int
    records: tuple[UpdateRecord, ...]

    def wire_size(self) -> int:
        return WORD_SIZE + payload_list_wire_size(self.records)


class OraclePushNode(ProtocolNode):
    """One replica under deferred-push symmetric replication."""

    protocol_name = "oracle-push"

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        items: list[str] | tuple[str, ...],
        counters: OverheadCounters = NULL_COUNTERS,
    ):
        super().__init__(node_id, n_nodes, counters)
        self._values: dict[str, bytes] = {name: b"" for name in items}
        # The LWW stamp of each item's current value.
        self._stamps: dict[str, tuple[int, int]] = {
            name: (0, -1) for name in items
        }
        # My own updates, in order; never truncated in this model (a
        # real system trims acknowledged prefixes — immaterial here).
        self._queue: list[UpdateRecord] = []
        self._own_seq = 0
        # How many of my queue entries each peer has acknowledged.
        self._acked: dict[int, int] = {k: 0 for k in range(n_nodes)}
        self._digest = ContentDigest()

    # -- user operations -----------------------------------------------------

    def user_update(self, item: str, op: UpdateOperation) -> None:
        if item not in self._values:
            raise UnknownItemError(item)
        new_value = op.apply(self._values[item])
        self._own_seq += 1
        self._digest.replace(item, self._values[item], new_value)
        self._values[item] = new_value
        self._stamps[item] = (self._own_seq, self.node_id)
        self._queue.append(
            UpdateRecord(item, new_value, self._own_seq, self.node_id)
        )

    def read(self, item: str) -> bytes:
        try:
            return self._values[item]
        except KeyError:
            raise UnknownItemError(item) from None

    # -- push propagation ------------------------------------------------------

    def exchange(
        self, peer: ProtocolNode, transport: Transport, stats: SyncStats
    ) -> None:
        """Push my unacknowledged updates to ``peer`` (no pulling, no
        forwarding: only records I originated travel)."""
        if not isinstance(peer, OraclePushNode):
            raise ProtocolStateError("OraclePushNode", peer)
        pending = self._queue[self._acked[peer.node_id]:]
        if not pending:
            stats.identical = True
            return
        # The push is a single message, so the session has one fault
        # point: the batch in flight (REQUEST_SENT).
        batch = transport.deliver(
            self.node_id, peer.node_id, _PushBatch(self.node_id, tuple(pending))
        )
        stats.messages = 1
        applied, changed = peer._apply_batch(batch)
        self._acked[peer.node_id] = len(self._queue)
        stats.items_transferred = applied
        # A push changes state at the *peer* only.
        stats.adopted_items = tuple(
            (peer.node_id, name) for name in changed
        )

    def push_to_all(
        self,
        peers: list["OraclePushNode"],
        transport: Transport,
        partial_crash: CrashAfterPartialPush | None = None,
    ) -> list[SyncStats]:
        """One full push round: ship pending updates to every peer.

        ``partial_crash`` models the paper's failure scenario: after
        each completed per-peer transfer the hook may crash this node,
        aborting the rest of the round and stranding the remaining
        peers without the updates.
        """
        results: list[SyncStats] = []
        for peer in peers:
            if peer.node_id == self.node_id:
                continue
            stats = self.sync_with(peer, transport)
            results.append(stats)
            if partial_crash is not None and not stats.failed:
                partial_crash.note_push(self.node_id)
                if partial_crash.should_crash_now(self.node_id, transport):  # type: ignore[arg-type]
                    break
        return results

    def _apply_batch(self, batch: _PushBatch) -> tuple[int, tuple[str, ...]]:
        """Apply received records under LWW; returns the adoption count
        and the names of the items whose value changed."""
        applied = 0
        changed: list[str] = []
        for record in batch.records:
            self.counters.seqno_comparisons += 1
            if record.stamp() > self._stamps[record.item]:
                self._digest.replace(
                    record.item, self._values[record.item], record.value
                )
                self._values[record.item] = record.value
                self._stamps[record.item] = record.stamp()
                self.counters.items_copied += 1
                applied += 1
                changed.append(record.item)
        return applied, tuple(changed)

    # -- introspection --------------------------------------------------------------

    def state_fingerprint(self) -> dict[str, bytes]:
        return dict(self._values)

    def state_version(self) -> StateVersion:
        return StateVersion(self.protocol_name, self._digest.token())

    def fingerprint_value(self, item: str) -> bytes:
        return self._values.get(item, b"")

    def pending_for(self, peer_id: int) -> int:
        """Queue entries not yet acknowledged by ``peer_id`` (test aid)."""
        return len(self._queue) - self._acked[peer_id]
