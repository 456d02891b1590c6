"""Baseline: Oracle Symmetric Replication-style deferred push
(paper section 8.2).

"Every server keeps track of the updates it performs and periodically
ships them to all other servers.  No forwarding of updates is
performed."  The model:

* a local update appends an **update record** to the node's deferred
  queue (we ship the resulting whole value, stamped ``(seqno, origin)``
  — a last-writer-wins register, which is how timestamp-based
  symmetric replication resolves concurrent writes; the seqno follows
  both the writer's own updates and the stamp it overwrites, the
  shared rule of :meth:`~repro.baselines.replica.LWWNode._write_local`);
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

from repro.baselines.replica import LWWNode, LWWRecord
from repro.core.messages import WORD_SIZE, payload_list_wire_size
from repro.errors import ProtocolStateError
from repro.interfaces import ProtocolNode, SyncStats, Transport
from repro.obs import NULL_COUNTERS, OverheadCounters
from repro.substrate.operations import UpdateOperation

__all__ = ["OraclePushNode"]


@dataclass(frozen=True, slots=True)
class _PushBatch:
    source: int
    records: tuple[LWWRecord, ...]

    def wire_size(self) -> int:
        return WORD_SIZE + payload_list_wire_size(self.records)


class OraclePushNode(LWWNode):
    """One replica under deferred-push symmetric replication."""

    protocol_name = "oracle-push"

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        items: list[str] | tuple[str, ...],
        counters: OverheadCounters = NULL_COUNTERS,
    ):
        super().__init__(node_id, n_nodes, items, counters)
        # My own updates, in order; never truncated in this model (a
        # real system trims acknowledged prefixes — immaterial here).
        self._queue: list[LWWRecord] = []
        self._own_seq = 0
        # How many of my queue entries each peer has acknowledged.
        self._acked: dict[int, int] = {k: 0 for k in range(n_nodes)}

    # -- user operations -----------------------------------------------------

    def user_update(self, item: str, op: UpdateOperation) -> None:
        record = self._write_local(item, op.apply(self.read(item)), self._own_seq)
        self._own_seq = record.seqno
        self._queue.append(record)

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
        changed = peer._apply_batch(batch)
        self._acked[peer.node_id] = len(self._queue)
        stats.items_transferred = len(changed)
        # A push changes state at the *peer* only.
        stats.adopted_items = tuple(
            (peer.node_id, name) for name in changed
        )

    def push_to_all(
        self,
        peers: list["OraclePushNode"],
        transport: Transport,
    ) -> list[SyncStats]:
        """One full push round: ship pending updates to every peer."""
        return [
            self.sync_with(peer, transport)
            for peer in peers
            if peer.node_id != self.node_id
        ]

    def _apply_batch(self, batch: _PushBatch) -> tuple[str, ...]:
        """Apply received records under LWW; returns the names of the
        items whose value changed."""
        changed: list[str] = []
        for record in batch.records:
            self.counters.seqno_comparisons += 1
            if self._install(record):
                changed.append(record.item)
        return tuple(changed)
