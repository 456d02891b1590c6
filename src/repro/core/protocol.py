"""The paper's protocol behind the protocol-neutral interface.

:class:`DBVVProtocolNode` adapts :class:`~repro.core.node.EpidemicNode`
to :class:`~repro.interfaces.ProtocolNode` so the cluster simulator and
the experiment harness can run it side by side with the baselines.  The
adapter adds nothing to the protocol — it only routes messages through a
transport and condenses outcomes into :class:`~repro.interfaces.SyncStats`;
the shared session envelope (:meth:`ProtocolNode.sync_with
<repro.interfaces.ProtocolNode.sync_with>`) handles faults.
"""

from __future__ import annotations

import functools

from repro.core.delta import DeltaEpidemicNode
from repro.core.messages import OutOfBoundReply, PropagationReply
from repro.core.node import EpidemicNode
from repro.core.session import PullSession, respond
from repro.durable.checkpoint import encode_checkpoint
from repro.durable.journal import NodeJournal
from repro.errors import DurabilityError, ProtocolStateError
from repro.interfaces import ProtocolNode, StateVersion, SyncStats, Transport
from repro.obs import NULL_COUNTERS, OverheadCounters
from repro.substrate.operations import UpdateOperation

__all__ = ["DBVVProtocolNode", "DeltaProtocolNode"]


class DBVVProtocolNode(ProtocolNode):
    """The EDBT'96 protocol: DBVV-gated anti-entropy with bounded logs.

    ``sync_with`` is a pull: this node (the recipient) sends its DBVV to
    the peer and adopts whatever the peer's ``SendPropagation`` answers
    with.  Out-of-bound copying is exposed via :meth:`fetch_out_of_bound`
    (an extension point the interface does not require — the baselines
    simply don't have it, which is part of the comparison story).
    """

    protocol_name = "dbvv"

    #: The epidemic-node implementation this adapter wraps; the
    #: operation-shipping variant overrides it.
    node_class: type[EpidemicNode] = EpidemicNode

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        items: list[str] | tuple[str, ...],
        counters: OverheadCounters = NULL_COUNTERS,
    ):
        super().__init__(node_id, n_nodes, counters)
        self.node = self.node_class(node_id, n_nodes, items, counters=counters)
        # Replica-at-birth shape, for journal recovery's fresh-node path
        # (journaled expand records re-grow the replica set on replay).
        self._items = tuple(items)
        self._initial_n_nodes = n_nodes
        self.journal: NodeJournal | None = None

    # -- durability (repro.durable integration) -------------------------------

    def attach_journal(self, journal: NodeJournal) -> None:
        """Journal every state-changing input of this node from now on.

        Attach at construction time, before the node accepts anything:
        the journal's recovery replays from an empty (or checkpointed)
        replica, so inputs accepted before attachment would be lost.
        The journal is bound to this node's id and item schema here.
        """
        journal.bind(self.node_id, self._items)
        self.journal = journal

    def recover_from_journal(self) -> None:
        """Rebuild ``self.node`` from disk (checkpoint + WAL suffix),
        discarding the in-memory object — the fail-stop repair path,
        done the way a real deployment must do it.

        The conflict reporter's history is telemetry and starts empty on
        a repaired server (same contract as the snapshot format);
        conflicts re-detected while replaying post-checkpoint records
        are re-declared into the fresh reporter.
        """
        if self.journal is None:
            raise DurabilityError(
                f"node {self.node_id} has no attached journal to recover "
                "from"
            )
        self.node = self.journal.recover(
            self.node_class,
            self.node_id,
            self._initial_n_nodes,
            list(self._items),
            counters=self.counters,
        )
        # Journaled expand records may have re-grown the replica set.
        self.n_nodes = self.node.n_nodes

    # -- user operations -----------------------------------------------------

    def user_update(self, item: str, op: UpdateOperation) -> None:
        self.node.update(item, op)
        if self.journal is not None:
            # Journal after the node accepted (an op the node rejects
            # never happened); durable once this group commit returns.
            self.journal.record_update(item, op)
            self.journal.commit(self.node)

    def resolve_conflict(self, item: str, value: bytes) -> None:
        """Administrator conflict resolution, journaled like any other
        state-changing input (see :meth:`EpidemicNode.resolve_conflict`)."""
        lineage = self.node.resolve_conflict(item, value)
        if self.journal is not None:
            self.journal.record_resolve(item, value, lineage)
            self.journal.commit(self.node)

    def read(self, item: str) -> bytes:
        return self.node.read(item)

    # -- synchronization -----------------------------------------------------

    def exchange(
        self, peer: ProtocolNode, transport: Transport, stats: SyncStats
    ) -> None:
        if not isinstance(peer, DBVVProtocolNode):
            raise ProtocolStateError("DBVVProtocolNode", peer)
        if peer.node_class is not self.node_class:
            raise TypeError(
                "propagation modes cannot mix: recipient runs "
                f"{self.node_class.__name__}, peer runs "
                f"{peer.node_class.__name__}"
            )
        # The sans-I/O session machine (repro.core.session) drives the
        # node; this adapter only moves its messages through the
        # transport.  repro.net moves the same messages through TCP
        # sockets.
        pull = PullSession(self.node)
        request = transport.deliver(self.node_id, peer.node_id, pull.request())
        answer = transport.deliver(
            peer.node_id, self.node_id, respond(peer.node, request)
        )
        stats.messages = 2
        # The reply is fully received before any state changes, so a
        # mid-session fault can never leave a half-applied adoption —
        # conclude() runs accept_propagation, which is local and atomic.
        outcome = pull.conclude(answer)
        if self.journal is not None and isinstance(answer, PropagationReply):
            # One group commit covers the adoption and its intra-node
            # replay; a YouAreCurrent changed nothing, nothing to log.
            # No frame reached this adapter, so the reply is encoded
            # with the journal's codec — the bytes a socket would carry.
            self.journal.record_accept(self.journal.codec.encode_payload(answer))
            self.journal.commit(self.node)
        if outcome.identical:
            stats.identical = True
            return
        stats.items_transferred = len(outcome.adopted)
        # The pull changed only this node, and only the adopted items
        # (intra-node replay is restricted to them too) — report the
        # exact dirty frontier for incremental staleness tracking.
        stats.adopted_items = tuple(
            (self.node_id, name) for name in outcome.adopted
        )
        stats.conflicts = outcome.conflicts

    # -- out-of-bound copying (protocol-specific extension) -------------------

    def fetch_out_of_bound(
        self, item: str, peer: "DBVVProtocolNode", transport: Transport
    ) -> bool:
        """Fetch ``item`` from ``peer`` immediately (paper section 5.2);
        True when a newer copy was installed as the auxiliary copy.

        The fetch runs in the session envelope, so a failed fetch — dead
        peer, *or* a message dropped by a lossy network — reports False;
        out-of-bound copying is best-effort, and an escaping
        :class:`~repro.errors.MessageLostError` would wrongly abort
        whatever user operation triggered the fetch.
        """
        fetch = functools.partial(self._exchange_oob, item, peer, transport)
        return self._session(peer, transport, fetch).items_transferred > 0

    def _exchange_oob(
        self, item: str, peer: "DBVVProtocolNode", transport: Transport,
        stats: SyncStats,
    ) -> None:
        """One out-of-bound request/reply; an installed copy counts as
        the one item transferred."""
        request = transport.deliver(
            self.node_id, peer.node_id, self.node.make_oob_request(item)
        )
        reply = transport.deliver(
            peer.node_id, self.node_id, peer.node.handle_oob_request(request)
        )
        stats.messages = 2
        if not isinstance(reply, OutOfBoundReply):
            raise ProtocolStateError("OutOfBoundReply", reply)
        installed = self.node.accept_oob(reply)
        if self.journal is not None:
            # Journaled whether or not a copy was installed: replay is
            # deterministic against the same pre-state, and a rejected
            # reply may still have declared a conflict.
            self.journal.record_oob(reply)
            self.journal.commit(self.node)
        stats.items_transferred = int(installed)

    # -- introspection -------------------------------------------------------

    def state_fingerprint(self) -> dict[str, bytes]:
        return {entry.name: entry.value for entry in self.node.store}

    def state_version(self) -> StateVersion:
        """O(n) plus one hash per item written since the last call:
        the content digest (folded here, its only reader), plus the
        DBVV tuple as the paper's identical-detection
        certificate while this replica is conflict-free AND free of
        imported log gaps.  A conflict freezes DBVV accounting, and a
        gap imported from a frozen peer means the reflected update set
        is not a per-origin prefix — either voids the equal-DBVV ⟹
        equal-state argument (see ``EpidemicNode.has_open_log_gaps``).
        """
        node = self.node
        certificate = None
        if node.conflicts.count == 0 and not node.has_open_log_gaps():
            certificate = node.dbvv.as_tuple()
        return StateVersion(self.protocol_name, node.content_digest, certificate)

    def fingerprint_value(self, item: str) -> bytes:
        return self.node.store[item].value

    def conflict_count(self) -> int:
        return self.node.conflicts.count

    def exploration_key(self) -> tuple:
        """The checkpoint bytes — already a canonical encoding of every
        durable structure (DBVV, IVVs, values, conflict flags, log
        vector, auxiliary copies and log) — plus conflict *existence*,
        which the protocol reads back (it freezes DBVV certificates and
        invariant checks) but the checkpoint deliberately omits.
        Existence, not the count: re-detecting an already-known conflict
        every session changes no behaviour, and keying on the count
        would keep a legitimately-conflicted state from ever reaching a
        closure fixpoint."""
        return (bytes(encode_checkpoint(0, self.node)), self.node.conflicts.count > 0)

    def exploration_vectors(self) -> dict[str, tuple[int, ...]]:
        """The DBVV and every *regular* IVV; auxiliary IVVs are excluded
        because discarding an auxiliary copy removes them wholesale."""
        vectors: dict[str, tuple[int, ...]] = {"dbvv": self.node.dbvv.as_tuple()}
        for entry in self.node.store:
            vectors[f"ivv:{entry.name}"] = entry.ivv.as_tuple()
        return vectors

    def expand_replica_set(self, new_n_nodes: int) -> None:
        """Dynamic-membership extension: grow this replica's view of the
        replica set (see :meth:`EpidemicNode.expand_replica_set`)."""
        self.node.expand_replica_set(new_n_nodes)
        self.n_nodes = new_n_nodes
        if self.journal is not None:
            self.journal.record_expand(new_n_nodes)
            self.journal.commit(self.node)

    def check_invariants(self) -> None:
        """Delegate to the node's cross-structure invariant checks."""
        self.node.check_invariants()


class DeltaProtocolNode(DBVVProtocolNode):
    """The protocol in operation-shipping mode (paper section 2's
    second propagation method; see :mod:`repro.core.delta`).

    All nodes of a cluster must run the same mode: a whole-value node
    cannot interpret a :class:`~repro.core.delta.DeltaPayload`, so the
    adapter's node-class check rejects mixed pairs up front.
    """

    protocol_name = "dbvv-delta"
    node_class = DeltaEpidemicNode
