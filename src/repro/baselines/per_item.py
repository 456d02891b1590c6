"""Baseline: classic per-item version-vector anti-entropy.

This is the protocol the paper calls "existing version vector-based
protocols" (sections 1, 8.3 — Locus/Ficus reconciliation): every data
item replica carries an IVV; an anti-entropy session between two nodes
compares the IVVs of *every* item pair-wise, copies items where the
source dominates, and flags conflicts.  It is fully correct (satisfies
criteria C1–C3 under transitive scheduling) — its only problem is cost:

* the source ships all N of its IVVs every session (``8·n·N`` bytes of
  version metadata), and
* the recipient performs N vector comparisons,

whether or not anything changed.  That O(N)-per-session overhead is the
paper's motivation, and experiments E1/E2/E8 measure it side by side
with the DBVV protocol.

Like the paper's presentation context, propagation copies whole item
values (section 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.replica import ValueStoreNode
from repro.core.messages import (
    WORD_SIZE,
    ItemPayload,
    name_list_wire_size,
    named_vv_list_wire_size,
    payload_list_wire_size,
)
from repro.core.version_vector import Ordering, VersionVector
from repro.errors import ProtocolStateError
from repro.interfaces import ProtocolNode, SyncStats, Transport
from repro.obs import NULL_COUNTERS, OverheadCounters
from repro.substrate.operations import UpdateOperation

__all__ = ["PerItemVVNode"]


@dataclass(frozen=True, slots=True)
class _IVVListRequest:
    """'Send me all your item version vectors.'"""

    requester: int

    def wire_size(self) -> int:
        return WORD_SIZE


@dataclass(frozen=True, slots=True)
class _IVVListReply:
    """All N (item, IVV) pairs of the source — the O(N) metadata cost."""

    source: int
    ivvs: tuple[tuple[str, VersionVector], ...]

    def wire_size(self) -> int:
        return WORD_SIZE + named_vv_list_wire_size(self.ivvs)


@dataclass(frozen=True, slots=True)
class _ItemFetch:
    """'Ship me these items.'"""

    requester: int
    names: tuple[str, ...]

    def wire_size(self) -> int:
        return WORD_SIZE + name_list_wire_size(self.names)


@dataclass(frozen=True, slots=True)
class _ItemShipment:
    """The requested item copies with their IVVs."""

    source: int
    payloads: tuple[ItemPayload, ...]

    def wire_size(self) -> int:
        return WORD_SIZE + payload_list_wire_size(self.payloads)


class PerItemVVNode(ValueStoreNode):
    """One replica under classic per-item version-vector anti-entropy."""

    protocol_name = "per-item-vv"
    causal_values = True

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        items: list[str] | tuple[str, ...],
        counters: OverheadCounters = NULL_COUNTERS,
    ):
        super().__init__(node_id, n_nodes, items, counters)
        self._ivvs: dict[str, VersionVector] = {
            name: VersionVector.zero(n_nodes) for name in items
        }
        self._conflicts: list[str] = []

    # -- user operations -----------------------------------------------------

    def user_update(self, item: str, op: UpdateOperation) -> None:
        self._write(item, op.apply(self.read(item)))
        self._ivvs[item].increment(self.node_id)

    # -- anti-entropy ------------------------------------------------------------

    def exchange(
        self, peer: ProtocolNode, transport: Transport, stats: SyncStats
    ) -> None:
        """Pull from ``peer``: fetch all its IVVs, compare every item,
        then fetch the items whose remote copy dominates.

        A fault before the shipment arrives aborts cleanly: no item
        state changed yet (conflicts detected while comparing were real
        detections and stand)."""
        if not isinstance(peer, PerItemVVNode):
            raise ProtocolStateError("PerItemVVNode", peer)
        request = transport.deliver(
            self.node_id, peer.node_id, _IVVListRequest(self.node_id)
        )
        reply = transport.deliver(
            peer.node_id, self.node_id, peer._serve_ivv_list(request)
        )
        stats.messages = 2

        wanted: list[str] = []
        for name, remote_ivv in reply.ivvs:
            self.counters.vv_comparisons += 1
            self.counters.vv_components_touched += self.n_nodes
            self.counters.items_scanned += 1
            ordering = remote_ivv.compare(self._ivvs[name])
            if ordering is Ordering.DOMINATES:
                wanted.append(name)
            elif ordering is Ordering.CONCURRENT:
                self._conflicts.append(name)
                self.counters.conflicts_detected += 1
                stats.conflicts += 1
        if not wanted:
            stats.identical = all(
                remote_ivv == self._ivvs[name]
                for name, remote_ivv in reply.ivvs
            ) and stats.conflicts == 0
            return

        # Second exchange of the session: request-sent / reply-in-flight
        # again, for the fetch.
        fetch = transport.deliver(
            self.node_id, peer.node_id, _ItemFetch(self.node_id, tuple(wanted))
        )
        shipment = transport.deliver(
            peer.node_id, self.node_id, peer._serve_fetch(fetch)
        )
        stats.messages += 2
        for payload in shipment.payloads:
            self._write(payload.name, payload.value)
            self._ivvs[payload.name] = payload.ivv.copy()
            self.counters.items_copied += 1
            stats.items_transferred += 1
        stats.adopted_items = tuple(
            (self.node_id, payload.name) for payload in shipment.payloads
        )

    def _serve_ivv_list(self, request: _IVVListRequest) -> _IVVListReply:
        """Source side: snapshot every item's IVV (the O(N) scan)."""
        self.counters.items_scanned += len(self._ivvs)
        return _IVVListReply(
            self.node_id,
            tuple((name, ivv.copy()) for name, ivv in self._ivvs.items()),  # pragma: full-scan shipping all N IVVs every session is this baseline's defining O(N) cost (paper sections 1, 8.3)
        )

    def _serve_fetch(self, fetch: _ItemFetch) -> _ItemShipment:
        payloads = tuple(
            ItemPayload(name, self._values[name], self._ivvs[name].copy())
            for name in fetch.names
        )
        return _ItemShipment(self.node_id, payloads)

    # -- introspection --------------------------------------------------------------

    def conflict_count(self) -> int:
        return len(self._conflicts)

    def exploration_key(self) -> tuple:
        """Values and IVVs in schema order, plus the *set* of conflicted
        items (sorted; detection order and re-detections are scheduling
        history, not behavioural state — keying on the raw list would
        keep conflicted states from ever reaching a closure fixpoint)."""
        return (
            tuple(
                (name, self._values[name], self._ivvs[name].as_tuple())
                for name in self._values
            ),
            tuple(sorted(set(self._conflicts))),
        )

    def exploration_vectors(self) -> dict[str, tuple[int, ...]]:
        return {f"ivv:{name}": ivv.as_tuple() for name, ivv in self._ivvs.items()}
