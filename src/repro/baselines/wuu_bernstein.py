"""Baseline: Wuu & Bernstein-style gossip with a two-dimensional
time-table (paper section 8.3).

Each node ``i`` keeps:

* an **update log** of records ``(item, value, seqno, origin)`` — every
  update it knows about, from every origin (values are LWW-stamped like
  the Oracle model, for the same reason);
* a **time-table** ``T_i``, an n×n matrix where ``T_i[k][l]`` is ``i``'s
  (conservative) knowledge of how many of ``l``'s updates node ``k`` has
  received.  Row ``T_i[i]`` is i's own version vector.

A gossip message from ``j`` to ``i`` carries ``j``'s time-table plus
every log record ``j`` cannot *prove* ``i`` already has — records with
``seqno > T_j[i][origin]``.  The recipient applies unseen records,
merges the time-table (row-wise max, plus the sender's row into its
own), and garbage-collects records that every node provably has
(``min_k T[k][origin] >= seqno``).

Correct (criteria C1 is vacuous — LWW hides conflicts — but C2/C3-style
convergence holds), and it even forwards third-party updates, unlike
Oracle push.  The costs the paper points out (section 8.3, footnote 4):

* building a gossip message compares the recipient's column against
  *every record in the log* — overhead linear in the log size, which is
  at least the number of recently-updated items and can be much larger
  before GC catches up;
* each message carries an n×n matrix, versus the paper's single DBVV.

Experiments E1/E8 measure both against the DBVV protocol.
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

__all__ = ["GossipRecord", "WuuBernsteinNode"]


@dataclass(frozen=True, slots=True)
class GossipRecord:
    """One logged update: LWW-stamped resulting value."""

    item: str
    value: bytes
    seqno: int
    origin: int

    def stamp(self) -> tuple[int, int]:
        return (self.seqno, self.origin)

    def wire_size(self) -> int:
        return lww_record_wire_size(self.item, self.value)


@dataclass(frozen=True, slots=True)
class _GossipMessage:
    source: int
    time_table: tuple[tuple[int, ...], ...]
    records: tuple[GossipRecord, ...]

    def wire_size(self) -> int:
        n = len(self.time_table)
        return (
            WORD_SIZE
            + WORD_SIZE * n * n
            + payload_list_wire_size(self.records)
        )


@dataclass(frozen=True, slots=True)
class _GossipRequest:
    """'Gossip to me' — carries nothing but identity; the knowledge
    needed to trim the reply lives in the source's time-table."""

    requester: int

    def wire_size(self) -> int:
        return WORD_SIZE


class WuuBernsteinNode(ProtocolNode):
    """One replica under time-table gossip."""

    protocol_name = "wuu-bernstein"

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        items: list[str] | tuple[str, ...],
        counters: OverheadCounters = NULL_COUNTERS,
    ):
        super().__init__(node_id, n_nodes, counters)
        self._values: dict[str, bytes] = {name: b"" for name in items}
        self._stamps: dict[str, tuple[int, int]] = {
            name: (0, -1) for name in items
        }
        self._log: list[GossipRecord] = []
        self._table = [[0] * n_nodes for _ in range(n_nodes)]
        self._digest = ContentDigest()

    # -- user operations -----------------------------------------------------

    def user_update(self, item: str, op: UpdateOperation) -> None:
        if item not in self._values:
            raise UnknownItemError(item)
        new_value = op.apply(self._values[item])
        # Lamport-style stamp: the new seqno must exceed both this
        # node's own event counter *and* the seqno of the stamp being
        # overwritten.  Stamping with the bare local counter lets an
        # update made after adopting a higher-origin stamp install a
        # *smaller* stamp — this replica then believes its update won
        # while every peer's LWW rule rejects the gossiped record, and
        # the replicas never converge (found by `python -m repro.explore
        # --protocol wuu-bernstein`, minimized to update@1, session@0<-1,
        # update@0).
        seqno = max(
            self._table[self.node_id][self.node_id], self._stamps[item][0]
        ) + 1
        self._table[self.node_id][self.node_id] = seqno
        self._digest.replace(item, self._values[item], new_value)
        self._values[item] = new_value
        self._stamps[item] = (seqno, self.node_id)
        self._log.append(GossipRecord(item, new_value, seqno, self.node_id))

    def read(self, item: str) -> bytes:
        try:
            return self._values[item]
        except KeyError:
            raise UnknownItemError(item) from None

    # -- gossip ------------------------------------------------------------------

    def exchange(
        self, peer: ProtocolNode, transport: Transport, stats: SyncStats
    ) -> None:
        """Pull a gossip message from ``peer``.

        Aborts are safe: the time-table only records *proven* knowledge,
        so a lost gossip message merely means the records travel again
        next session."""
        if not isinstance(peer, WuuBernsteinNode):
            raise ProtocolStateError("WuuBernsteinNode", peer)
        request = transport.deliver(
            self.node_id, peer.node_id, _GossipRequest(self.node_id)
        )
        message = transport.deliver(
            peer.node_id, self.node_id, peer._build_gossip(request.requester)
        )
        stats.messages = 2

        applied = 0
        changed: list[str] = []
        for record in message.records:
            self.counters.seqno_comparisons += 1
            if record.seqno > self._table[self.node_id][record.origin]:
                # Unseen update: log it and LWW-apply it.
                self._log.append(record)
                if record.stamp() > self._stamps[record.item]:
                    self._digest.replace(
                        record.item, self._values[record.item], record.value
                    )
                    self._values[record.item] = record.value
                    self._stamps[record.item] = record.stamp()
                    self.counters.items_copied += 1
                    changed.append(record.item)
                applied += 1
        stats.items_transferred = applied
        stats.identical = applied == 0
        stats.adopted_items = tuple((self.node_id, item) for item in changed)

        # Merge knowledge: my own row joins the sender's row; every row
        # joins component-wise (both are standard time-table rules).
        sender_row = message.time_table[message.source]
        my_row = self._table[self.node_id]
        for l_idx in range(self.n_nodes):  # pragma: full-scan time-table row join is O(n) by definition of the algorithm
            if sender_row[l_idx] > my_row[l_idx]:
                my_row[l_idx] = sender_row[l_idx]
        for k in range(self.n_nodes):  # pragma: full-scan the n-by-n time-table merge is this baseline's defining metadata cost
            row = self._table[k]
            remote_row = message.time_table[k]
            for l_idx in range(self.n_nodes):  # pragma: full-scan inner half of the n-by-n time-table merge
                self.counters.vv_components_touched += 1
                if remote_row[l_idx] > row[l_idx]:
                    row[l_idx] = remote_row[l_idx]
        self._garbage_collect()

    def _build_gossip(self, requester: int) -> _GossipMessage:
        """Select every record the requester might be missing.

        This is the cost the paper's footnote 4 calls out: the whole log
        is scanned, comparing each record against the time-table column
        for the requester — linear in log size per session.
        """
        selected = []
        for record in self._log:  # pragma: full-scan whole-log scan per session is the cost the paper's footnote 4 calls out
            self.counters.log_records_examined += 1
            if record.seqno > self._table[requester][record.origin]:
                selected.append(record)
        return _GossipMessage(
            self.node_id,
            tuple(tuple(row) for row in self._table),  # pragma: full-scan every gossip message carries the full n-by-n time table
            tuple(selected),
        )

    def _garbage_collect(self) -> None:
        """Drop records provably known everywhere (min over the column)."""
        def known_everywhere(record: GossipRecord) -> bool:
            return all(
                self._table[k][record.origin] >= record.seqno
                for k in range(self.n_nodes)  # pragma: full-scan the GC rule takes the min over a full time-table column
            )

        self._log = [r for r in self._log if not known_everywhere(r)]  # pragma: full-scan garbage collection sweeps the whole log by design

    # -- introspection --------------------------------------------------------------

    def state_fingerprint(self) -> dict[str, bytes]:
        return dict(self._values)

    def state_version(self) -> StateVersion:
        return StateVersion(self.protocol_name, self._digest.token())

    def fingerprint_value(self, item: str) -> bytes:
        return self._values.get(item, b"")

    @property
    def log_size(self) -> int:
        """Current log length (grows with update volume until GC)."""
        return len(self._log)

    def exploration_key(self) -> tuple:
        """Values/stamps in schema order, the log as a sorted record
        multiset (gossip applies records independently, so log order is
        scheduling history, not behavioural state), and the time-table."""
        return (
            tuple(
                (name, self._values[name], self._stamps[name])
                for name in self._values
            ),
            tuple(sorted((r.origin, r.seqno, r.item, r.value) for r in self._log)),
            tuple(tuple(row) for row in self._table),
        )

    def exploration_vectors(self) -> dict[str, tuple[int, ...]]:
        """Every time-table row (rows only merge upward) and every LWW
        stamp.  Stamps advance *lexicographically* — the origin
        component may decrease while the seqno rises — so each is
        flattened to one order-preserving scalar (``seqno`` scaled past
        the origin range) for the component-wise monotonicity oracle."""
        vectors: dict[str, tuple[int, ...]] = {
            f"tt:{k}": tuple(self._table[k]) for k in range(self.n_nodes)
        }
        for name, (seqno, origin) in self._stamps.items():
            vectors[f"stamp:{name}"] = (seqno * (self.n_nodes + 1) + origin + 1,)
        return vectors

    def time_table(self) -> list[list[int]]:
        """A copy of the n×n time-table (test aid)."""
        return [list(row) for row in self._table]
