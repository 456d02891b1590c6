"""Baseline: Agrawal & Malpani-style decoupled dissemination
(paper section 8.3).

"Agrawal and Malpani's protocol decouples sending update logs from
sending version vector information.  Thus, separate policies can be
used to schedule both types of exchanges."  The model:

* **Log push** (frequent, cheap): a node ships recent update records —
  everything it received since it last pushed to that peer — with *no*
  version-vector handshake.  Recipients apply records they have not
  seen (tracked by a per-origin received-counter vector) and log them
  for their own future pushes, so updates do forward epidemically.
* **Vector exchange** (infrequent, heavier): nodes compare received-
  counter vectors to find gaps the best-effort pushes missed (e.g.
  records pushed while the recipient was down) and repair them by
  requesting the missing records explicitly.

The paper's criticism applies to this family (footnote 4): every log
push compares its candidate records against per-peer cursors, and the
repair path's vector exchange is per-origin; with anti-entropy done per
data item the overhead is "linear in the number of data items plus the
number of updates exchanged".  As with the other non-vector-per-item
baselines, values are LWW-stamped (conflicts resolve silently — the
correctness gap the DBVV protocol closes).

The decoupling knob is ``vector_exchange_every``: a node performs its
vector exchange on every k-th ``sync_with`` call, pure log pushes in
between.
"""

from __future__ import annotations

from dataclasses import dataclass

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

__all__ = ["AMRecord", "AgrawalMalpaniNode"]


@dataclass(frozen=True, slots=True)
class AMRecord:
    """One disseminated update: LWW-stamped resulting value."""

    item: str
    value: bytes
    seqno: int
    origin: int

    def stamp(self) -> tuple[int, int]:
        return (self.seqno, self.origin)

    def wire_size(self) -> int:
        return lww_record_wire_size(self.item, self.value)


@dataclass(frozen=True, slots=True)
class _LogPush:
    source: int
    records: tuple[AMRecord, ...]

    def wire_size(self) -> int:
        return WORD_SIZE + payload_list_wire_size(self.records)


@dataclass(frozen=True, slots=True)
class _VectorExchange:
    """'Here is how many updates per origin I have received.'"""

    source: int
    received: tuple[int, ...]

    def wire_size(self) -> int:
        return WORD_SIZE + WORD_SIZE * len(self.received)


@dataclass(frozen=True, slots=True)
class _RepairRequest:
    requester: int
    gaps: tuple[tuple[int, int], ...]  # (origin, have-through)

    def wire_size(self) -> int:
        return WORD_SIZE + 2 * WORD_SIZE * len(self.gaps)


class AgrawalMalpaniNode(ProtocolNode):
    """One replica under decoupled log/vector dissemination."""

    protocol_name = "agrawal-malpani"

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        items: list[str] | tuple[str, ...],
        counters: OverheadCounters = NULL_COUNTERS,
        vector_exchange_every: int = 4,
    ):
        super().__init__(node_id, n_nodes, counters)
        if vector_exchange_every < 1:
            raise ValueError(
                f"vector_exchange_every must be >= 1, got {vector_exchange_every}"
            )
        self._values: dict[str, bytes] = {name: b"" for name in items}
        self._stamps: dict[str, tuple[int, int]] = {
            name: (0, -1) for name in items
        }
        # All records this node has received, per origin, in seqno order
        # (dense: record k of a list has seqno k+1 — the prefix shape
        # the dissemination maintains).
        self._received: list[list[AMRecord]] = [[] for _ in range(n_nodes)]
        # Per-peer: how many of each origin's records we already pushed.
        self._pushed: dict[int, list[int]] = {
            peer: [0] * n_nodes for peer in range(n_nodes)
        }
        self.vector_exchange_every = vector_exchange_every
        self._sync_calls = 0
        self.vector_exchanges = 0
        self.repairs = 0
        self._digest = ContentDigest()

    # -- user operations -----------------------------------------------------

    def user_update(self, item: str, op: UpdateOperation) -> None:
        if item not in self._values:
            raise UnknownItemError(item)
        new_value = op.apply(self._values[item])
        seqno = len(self._received[self.node_id]) + 1
        record = AMRecord(item, new_value, seqno, self.node_id)
        self._apply(record)
        self._received[self.node_id].append(record)

    def read(self, item: str) -> bytes:
        try:
            return self._values[item]
        except KeyError:
            raise UnknownItemError(item) from None

    def _apply(self, record: AMRecord) -> bool:
        """LWW-apply; True when the item's value actually changed hands."""
        self.counters.seqno_comparisons += 1
        if record.stamp() > self._stamps[record.item]:
            self._digest.replace(
                record.item, self._values[record.item], record.value
            )
            self._values[record.item] = record.value
            self._stamps[record.item] = record.stamp()
            self.counters.items_copied += 1
            return True
        return False

    def received_vector(self) -> tuple[int, ...]:
        """Per-origin received-record counts (the protocol's vector)."""
        return tuple(len(records) for records in self._received)

    # -- dissemination ------------------------------------------------------------

    def exchange(
        self, peer: ProtocolNode, transport: Transport, stats: SyncStats
    ) -> None:
        """Push recent records to ``peer``; every k-th call also runs
        the vector exchange and repairs gaps in both directions.

        A lost log push is *by design* not retried (the cursors already
        advanced — decoupling means the cheap path carries no
        acknowledgement state); the vector exchange repairs the gap
        later.  The abort is still a failed session for accounting
        purposes."""
        if not isinstance(peer, AgrawalMalpaniNode):
            raise ProtocolStateError("AgrawalMalpaniNode", peer)
        self._sync_calls += 1
        applied, pushed_names = self._log_push(peer, transport, stats)
        adopted = [(peer.node_id, name) for name in pushed_names]
        if self._sync_calls % self.vector_exchange_every == 0:
            repaired, repair_adopted = self._vector_exchange(
                peer, transport, stats
            )
            applied += repaired
            adopted.extend(repair_adopted)
        stats.items_transferred = applied
        stats.identical = applied == 0
        stats.adopted_items = tuple(adopted)

    def _log_push(
        self,
        peer: "AgrawalMalpaniNode",
        transport: Transport,
        stats: SyncStats,
    ) -> tuple[int, tuple[str, ...]]:
        # Pushes are deliberately fire-and-forget: the cursors advance
        # whether or not delivery succeeds, and a lost push is never
        # retried — that is the decoupling (the cheap path carries no
        # acknowledgement state; the vector exchange repairs whatever
        # best-effort pushing missed).
        cursors = self._pushed[peer.node_id]
        fresh: list[AMRecord] = []
        for origin in range(self.n_nodes):
            records = self._received[origin]
            for record in records[cursors[origin]:]:
                self.counters.log_records_examined += 1
                fresh.append(record)
            cursors[origin] = len(records)
        if not fresh:
            return 0, ()
        message = transport.deliver(
            self.node_id, peer.node_id, _LogPush(self.node_id, tuple(fresh))
        )
        stats.messages += 1
        return peer._accept_records(message.records)

    def _accept_records(
        self, records: tuple[AMRecord, ...]
    ) -> tuple[int, tuple[str, ...]]:
        """Returns the accepted-record count (``items_transferred``
        semantics, unchanged) plus the names whose value changed."""
        applied = 0
        changed: list[str] = []
        for record in records:
            known = self._received[record.origin]
            self.counters.seqno_comparisons += 1
            if record.seqno == len(known) + 1:
                known.append(record)
                if self._apply(record):
                    changed.append(record.item)
                applied += 1
            # Records out of prefix order (a gap from a missed push)
            # are dropped here; the vector exchange repairs gaps.
        return applied, tuple(changed)

    def _vector_exchange(
        self,
        peer: "AgrawalMalpaniNode",
        transport: Transport,
        stats: SyncStats,
    ) -> tuple[int, list[tuple[int, str]]]:
        """Compare received-vectors both ways and repair gaps: I repair
        from the peer, then the peer from me (symmetric exchange; the
        peer's request travels the reply leg, its repair the request
        leg)."""
        self.vector_exchanges += 1
        mine = transport.deliver(
            self.node_id, peer.node_id,
            _VectorExchange(self.node_id, self.received_vector()),
        )
        theirs = transport.deliver(
            peer.node_id, self.node_id,
            _VectorExchange(peer.node_id, peer.received_vector()),
        )
        stats.messages += 2
        applied = 0
        adopted: list[tuple[int, str]] = []
        for needy, server, have, other in (
            (self, peer, mine, theirs), (peer, self, theirs, mine)
        ):
            gaps = tuple(
                (origin, have.received[origin])
                for origin in range(self.n_nodes)
                if other.received[origin] > have.received[origin]
            )
            if gaps:
                accepted, changed = needy._repair(server, gaps, transport, stats)
                applied += accepted
                adopted.extend((needy.node_id, name) for name in changed)
        return applied, adopted

    def _repair(
        self,
        server: "AgrawalMalpaniNode",
        gaps: tuple[tuple[int, int], ...],
        transport: Transport,
        stats: SyncStats,
    ) -> tuple[int, tuple[str, ...]]:
        """Request the records past ``gaps`` from ``server`` and accept
        them."""
        request = transport.deliver(
            self.node_id, server.node_id, _RepairRequest(self.node_id, gaps)
        )
        repair = transport.deliver(
            server.node_id, self.node_id, server._serve_repair(request)
        )
        stats.messages += 2
        self.repairs += 1
        return self._accept_records(repair.records)

    def _serve_repair(self, request: _RepairRequest) -> _LogPush:
        records: list[AMRecord] = []
        for origin, have_through in request.gaps:
            for record in self._received[origin][have_through:]:
                self.counters.log_records_examined += 1
                records.append(record)
        return _LogPush(self.node_id, tuple(records))

    # -- introspection --------------------------------------------------------------

    def state_fingerprint(self) -> dict[str, bytes]:
        return dict(self._values)

    def state_version(self) -> StateVersion:
        return StateVersion(self.protocol_name, self._digest.token())

    def fingerprint_value(self, item: str) -> bytes:
        return self._values.get(item, b"")
