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

from repro.baselines.replica import LWWNode, LWWRecord
from repro.core.messages import WORD_SIZE, payload_list_wire_size
from repro.errors import ProtocolStateError
from repro.interfaces import ProtocolNode, SyncStats, Transport
from repro.obs import NULL_COUNTERS, OverheadCounters
from repro.substrate.operations import UpdateOperation

__all__ = ["WuuBernsteinNode"]


@dataclass(frozen=True, slots=True)
class _GossipMessage:
    source: int
    time_table: tuple[tuple[int, ...], ...]
    records: tuple[LWWRecord, ...]

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


class WuuBernsteinNode(LWWNode):
    """One replica under time-table gossip."""

    protocol_name = "wuu-bernstein"
    #: Adopts by per-origin stamp, not by version vector.
    causal_values = False

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        items: list[str] | tuple[str, ...],
        counters: OverheadCounters = NULL_COUNTERS,
    ):
        super().__init__(node_id, n_nodes, items, counters)
        self._log: list[LWWRecord] = []
        self._table = [[0] * n_nodes for _ in range(n_nodes)]

    # -- user operations -----------------------------------------------------

    def user_update(self, item: str, op: UpdateOperation) -> None:
        record = self._write_local(
            item, op.apply(self.read(item)), self._table[self.node_id][self.node_id]
        )
        self._table[self.node_id][self.node_id] = record.seqno
        self._log.append(record)

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
                if self._install(record):
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
        def known_everywhere(record: LWWRecord) -> bool:
            return all(
                self._table[k][record.origin] >= record.seqno
                for k in range(self.n_nodes)  # pragma: full-scan the GC rule takes the min over a full time-table column
            )

        self._log = [r for r in self._log if not known_everywhere(r)]  # pragma: full-scan garbage collection sweeps the whole log by design

    # -- introspection --------------------------------------------------------------

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
