"""Baseline: the Lotus Notes replication protocol (paper section 8.1).

The model follows the paper's description of Lotus Notes [Kawell et al.
1988] exactly:

* every item copy carries a **sequence number** counting the updates it
  reflects (no version vectors);
* every item copy carries a **last-modified time** in its server's
  local clock;
* every server remembers, per peer, **when it last propagated updates
  to that peer** (the "last propagation time");
* anti-entropy from ``j`` to ``i``: if nothing in ``j``'s replica
  changed since the last propagation to ``i``, stop (constant time);
  otherwise ``j`` *scans every item* for ``last_modified > last
  propagation to i``, sends the resulting (name, seqno) list, and ``i``
  copies every item whose sequence number on ``j`` is higher.

Two deficiencies the paper proves and our experiments measure:

1. **Redundant sessions (E4a).**  The modification-time test is against
   *this pair's* last exchange, so replicas that became identical
   through third parties still trigger a full O(N) scan plus a list
   transfer — "Lotus incurs high overhead for attempting update
   propagation between identical database replicas".

2. **Incorrect conflict handling (E4b).**  Comparing scalar sequence
   numbers cannot distinguish "newer" from "conflicting": if node A
   updated an item twice and node B once, concurrently, A's copy (seq 2)
   silently overwrites B's (seq 1) — a lost update, violating
   correctness criterion C2.  Equal sequence numbers are tie-broken by
   writer id (a modelling choice so benign workloads still converge;
   any tie-break is equally wrong for conflicts).

Whole-item copying, as in the real system.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.messages import (
    WORD_SIZE,
    lww_record_wire_size,
    name_list_wire_size,
    string_wire_size,
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

__all__ = ["LotusNode"]


@dataclass
class _Doc:
    """One Lotus 'document' replica: value, sequence number, local
    modification time, and the last writer (tie-break only)."""

    value: bytes = b""
    seqno: int = 0
    last_modified: int = 0
    last_writer: int = -1

    def stamp(self) -> tuple[int, int]:
        """Adoption order: higher seqno wins; writer id breaks ties."""
        return (self.seqno, self.last_writer)


@dataclass(frozen=True, slots=True)
class _PropagationProbe:
    """'Anything changed since you last propagated to me?'"""

    requester: int

    def wire_size(self) -> int:
        return WORD_SIZE


@dataclass(frozen=True, slots=True)
class _ChangeList:
    """The (name, seqno, writer) list of items modified since the last
    propagation to the requester — empty means 'nothing changed'."""

    source: int
    entries: tuple[tuple[str, int, int], ...]

    def wire_size(self) -> int:
        return WORD_SIZE + sum(
            2 * WORD_SIZE + string_wire_size(name)
            for name, _seqno, _writer in self.entries
        )


@dataclass(frozen=True, slots=True)
class _DocFetch:
    requester: int
    names: tuple[str, ...]

    def wire_size(self) -> int:
        return WORD_SIZE + name_list_wire_size(self.names)


@dataclass(frozen=True, slots=True)
class _DocShipment:
    source: int
    docs: tuple[tuple[str, bytes, int, int], ...]  # name, value, seqno, writer

    def wire_size(self) -> int:
        return WORD_SIZE + sum(
            lww_record_wire_size(name, value)
            for name, value, _seqno, _writer in self.docs
        )


class LotusNode(ProtocolNode):
    """One replica under the Lotus Notes protocol model."""

    protocol_name = "lotus"

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        items: list[str] | tuple[str, ...],
        counters: OverheadCounters = NULL_COUNTERS,
    ):
        super().__init__(node_id, n_nodes, counters)
        self._docs: dict[str, _Doc] = {name: _Doc() for name in items}
        # This server's local event clock; advanced by every update and
        # every served propagation, so "modified since" is well ordered.
        self._clock = 0
        # When we last propagated updates to each peer, in *our* clock.
        self._last_prop_to: dict[int, int] = {k: 0 for k in range(n_nodes)}
        self._db_last_modified = 0
        self._digest = ContentDigest()

    # -- user operations -----------------------------------------------------

    def user_update(self, item: str, op: UpdateOperation) -> None:
        doc = self._doc(item)
        self._clock += 1
        old = doc.value
        doc.value = op.apply(doc.value)
        self._digest.replace(item, old, doc.value)
        doc.seqno += 1
        doc.last_modified = self._clock
        doc.last_writer = self.node_id
        self._db_last_modified = self._clock

    def read(self, item: str) -> bytes:
        return self._doc(item).value

    def _doc(self, item: str) -> _Doc:
        try:
            return self._docs[item]
        except KeyError:
            raise UnknownItemError(item) from None

    # -- anti-entropy ------------------------------------------------------------

    def exchange(
        self, peer: ProtocolNode, transport: Transport, stats: SyncStats
    ) -> None:
        """Pull from ``peer`` (``peer`` is the source ``j`` of paper
        section 8.1; this node is the recipient ``i``).

        Note the Lotus-specific hazard under faults: if the source
        already served the probe (advancing its last-propagation
        cursor) and the reply was lost, those entries will not be
        offered again — a real weakness of per-pair cursors."""
        if not isinstance(peer, LotusNode):
            raise ProtocolStateError("LotusNode", peer)
        probe = transport.deliver(
            self.node_id, peer.node_id, _PropagationProbe(self.node_id)
        )
        change_list = transport.deliver(
            peer.node_id, self.node_id, peer._serve_probe(probe)
        )
        stats.messages = 2
        if not change_list.entries:
            stats.identical = True
            return

        wanted: list[str] = []
        for name, seqno, writer in change_list.entries:
            self.counters.seqno_comparisons += 1
            if (seqno, writer) > self._doc(name).stamp():
                wanted.append(name)
        if not wanted:
            # The list was all stale entries — work was done for
            # nothing (the Lotus overhead the paper criticizes), but no
            # data needs to move.
            return

        # Second exchange: request-sent / reply-in-flight again, for the
        # document fetch.
        fetch = transport.deliver(
            self.node_id, peer.node_id, _DocFetch(self.node_id, tuple(wanted))
        )
        shipment = transport.deliver(
            peer.node_id, self.node_id, peer._serve_fetch(fetch)
        )
        stats.messages += 2
        for name, value, seqno, writer in shipment.docs:
            doc = self._doc(name)
            # Blind adoption by sequence number: this is where Lotus can
            # silently overwrite a conflicting concurrent update (E4b).
            self._clock += 1
            self._digest.replace(name, doc.value, value)
            doc.value = value
            doc.seqno = seqno
            doc.last_writer = writer
            doc.last_modified = self._clock
            self._db_last_modified = self._clock
            self.counters.items_copied += 1
            stats.items_transferred += 1
        stats.adopted_items = tuple(
            (self.node_id, name) for name, _v, _s, _w in shipment.docs
        )

    def _serve_probe(self, probe: _PropagationProbe) -> _ChangeList:
        """Source side of step 1 (paper section 8.1).

        Constant time only when *nothing at all* changed since the last
        propagation to this requester; otherwise a full scan of all N
        items — the cost experiment E1/E4a measures.
        """
        since = self._last_prop_to[probe.requester]
        self.counters.seqno_comparisons += 1
        if self._db_last_modified <= since:
            return _ChangeList(self.node_id, ())
        entries = []
        for name, doc in self._docs.items():
            self.counters.items_scanned += 1
            if doc.last_modified > since:
                entries.append((name, doc.seqno, doc.last_writer))
        self._last_prop_to[probe.requester] = self._clock
        return _ChangeList(self.node_id, tuple(entries))

    def _serve_fetch(self, fetch: _DocFetch) -> _DocShipment:
        docs = tuple(
            (name, self._docs[name].value, self._docs[name].seqno,
             self._docs[name].last_writer)
            for name in fetch.names
        )
        return _DocShipment(self.node_id, docs)

    # -- introspection --------------------------------------------------------------

    def state_fingerprint(self) -> dict[str, bytes]:
        return {name: doc.value for name, doc in self._docs.items()}

    def state_version(self) -> StateVersion:
        return StateVersion(self.protocol_name, self._digest.token())

    def fingerprint_value(self, item: str) -> bytes:
        doc = self._docs.get(item)
        return doc.value if doc is not None else b""

    def seqno_of(self, item: str) -> int:
        """The item's Lotus sequence number (test aid)."""
        return self._doc(item).seqno
