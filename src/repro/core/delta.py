"""Operation-shipping update propagation (paper section 2's second mode).

The paper presents whole-item copying but states explicitly that
"update propagation can be done by either copying the entire data item,
or by obtaining and applying log records for missing updates.  For
instance, ... Lotus Notes uses whole data item copying, while Oracle
Symmetric Replication copies update records.  The ideas described in
this paper are applicable for both these methods."  This module is that
second mode: the same DBVV/log-vector machinery, but the propagation
payload for an item is — when possible — the *chain of missing update
operations* instead of the whole value.

How it works:

* every regular update is remembered in a per-item :class:`OpHistory`
  as ``(origin, m, op)``, where ``m`` is the origin's database-level
  sequence number — the same number the regular log records carry;
* histories are bounded (``history_limit`` entries per item); evicting
  an entry raises the item's *floor* for that origin, recording that
  older operations are no longer reconstructible;
* ``SendPropagation`` knows the recipient's DBVV ``V_i``; by the
  protocol's prefix-ordering property the recipient holds exactly the
  item's updates with ``m <= V_i[origin]``, so the missing chain is the
  history suffix with ``m > V_i[origin]`` — shipped as a
  :class:`DeltaPayload` when the floor check proves the suffix is
  complete, with a whole-value fallback otherwise (also after a
  whole-value adoption or an administrative rewrite, which leave a gap
  in the history);
* the recipient applies the chain in order, skipping every entry its
  copy already reflects (a conflict on another item can leave its DBVV
  behind the item's IVV, so the cut may repeat them), and verifies the
  resulting IVV equals the shipped IVV — the check turns any violation
  into a loud error instead of silent divergence.

When updates are small relative to item size (the byte-range patches of
the paper's auxiliary-log example), shipping operations cuts propagation
bytes dramatically; the ablation benchmark quantifies it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Any

from repro.core.items import DataItem
from repro.core.messages import (
    WORD_SIZE,
    ItemPayload,
    payload_list_wire_size,
    string_wire_size,
    vv_wire_size,
)
from repro.core.node import EpidemicNode
from repro.core.version_vector import VersionVector
from repro.errors import ReplicationError
from repro.substrate.operations import UpdateOperation

__all__ = [
    "OpChainEntry",
    "DeltaPayload",
    "OpHistory",
    "DeltaEpidemicNode",
    "DeltaChainError",
]

DEFAULT_HISTORY_LIMIT = 64


class DeltaChainError(ReplicationError):
    """An op chain did not reproduce the advertised IVV — the sender
    and receiver disagree about history, which the protocol's prefix
    property rules out; failing loudly beats silent divergence."""


@dataclass(frozen=True, slots=True)
class OpChainEntry:
    """One remembered update: who originated it, its origin-level
    sequence number (the same ``m`` as the log record), and the
    re-doable operation."""

    origin: int
    m: int
    op: UpdateOperation

    def wire_size(self) -> int:
        return 2 * WORD_SIZE + self.op.size()


@dataclass(frozen=True, slots=True)
class DeltaPayload:
    """An item shipped as its missing-operations chain.

    Interface-compatible with :class:`ItemPayload` where
    AcceptPropagation needs it (``name``, ``ivv``, ``wire_size``).
    """

    name: str
    ivv: VersionVector
    ops: tuple[OpChainEntry, ...]

    def wire_size(self) -> int:
        return (
            string_wire_size(self.name)
            + vv_wire_size(self.ivv)
            + payload_list_wire_size(self.ops)
        )


class OpHistory:
    """Bounded per-item memory of recent updates, in application order.

    ``floor[k]`` is the highest origin-``k`` sequence number that has
    been forgotten (evicted, or implicitly dropped by a whole-value
    adoption); a recipient at ``V_i`` can be served by chain iff
    ``floor[k] <= V_i[k]`` for every origin ``k``.
    """

    __slots__ = ("limit", "_entries", "_floor")

    def __init__(self, n_nodes: int, limit: int = DEFAULT_HISTORY_LIMIT) -> None:
        if limit < 0:
            raise ValueError(f"history limit must be >= 0, got {limit}")
        self.limit = limit
        self._entries: deque[OpChainEntry] = deque()
        self._floor = [0] * n_nodes

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, entry: OpChainEntry) -> None:
        """Append one update, evicting the oldest beyond the limit."""
        self._entries.append(entry)
        while len(self._entries) > self.limit:
            evicted = self._entries.popleft()
            if evicted.m > self._floor[evicted.origin]:
                self._floor[evicted.origin] = evicted.m

    def forget_through(self, bound: VersionVector) -> None:
        """Drop everything after a whole-value adoption or rewrite: the
        value no longer equals 'old value + retained ops', so chains
        built on the old history would corrupt recipients.

        ``bound`` must dominate the node's post-adoption DBVV restricted
        to this item's lineage: by the protocol's prefix property, every
        update from origin ``k`` reflected anywhere at this node has
        ``m <= V[k]``, so raising the floor to ``bound`` marks every op
        that could possibly be missing as unreconstructible."""
        self._entries.clear()
        for k in range(len(self._floor)):
            self._floor[k] = max(self._floor[k], bound[k])

    def covers(self, remote_dbvv: VersionVector) -> bool:
        """Can a recipient at ``remote_dbvv`` be served by chain?"""
        return all(
            self._floor[k] <= remote_dbvv[k] for k in range(len(self._floor))
        )

    def chain_for(self, remote_dbvv: VersionVector) -> tuple[OpChainEntry, ...]:
        """The ops the recipient misses, in application order."""
        return tuple(
            entry
            for entry in self._entries
            if entry.m > remote_dbvv[entry.origin]
        )

    @property
    def floor(self) -> tuple[int, ...]:
        return tuple(self._floor)

    def key(self) -> tuple:
        """The retained entries as ``(origin, m, op)`` and the floor —
        everything that decides between a chain and a whole value."""
        entries = tuple((e.origin, e.m, e.op) for e in self._entries)
        return (entries, self.floor)


class DeltaEpidemicNode(EpidemicNode):
    """The paper's protocol with operation-shipping propagation.

    Identical control flow to :class:`~repro.core.node.EpidemicNode`
    (same DBVV comparison, tails, conflict handling, out-of-bound and
    intra-node machinery); only the item payloads differ.  Nodes fall
    back to whole-value payloads whenever the bounded history cannot
    prove chain completeness.
    """

    def __init__(
        self, *args: Any, history_limit: int = DEFAULT_HISTORY_LIMIT, **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        self.history_limit = history_limit
        self._histories = self._empty_histories()
        # Items whole-value-adopted during the current accept_propagation
        # whose history floors still await the session-final DBVV.
        self._pending_floor_items: set[str] = set()

    def _empty_histories(self) -> dict[str, OpHistory]:
        return {
            name: OpHistory(self.n_nodes, self.history_limit)
            for name in self.store.names()
        }

    def history_key(self) -> tuple:
        """Every item's :meth:`OpHistory.key`, in store order."""
        return tuple(history.key() for history in self._histories.values())

    # -- hook overrides -------------------------------------------------------

    def _record_regular_update(self, entry: DataItem, op: UpdateOperation) -> None:
        # The update was just applied and counted: V_ii is its m.
        self._histories[entry.name].record(
            OpChainEntry(self.node_id, self.dbvv[self.node_id], op)
        )

    def _payload_for(
        self, entry: DataItem, remote_dbvv: VersionVector
    ) -> DeltaPayload | ItemPayload:
        history = self._histories[entry.name]
        if history.covers(remote_dbvv):
            return DeltaPayload(
                entry.name, entry.ivv.copy(), history.chain_for(remote_dbvv)
            )
        return ItemPayload(entry.name, entry.value, entry.ivv.copy())

    def _install_payload(self, entry: DataItem, payload) -> None:
        history = self._histories[entry.name]
        if isinstance(payload, DeltaPayload):
            # A chain is cut at the recipient's DBVV, which can lag the
            # item's own IVV: after a conflict on another item the
            # prefix property no longer holds, and the chain may repeat
            # updates this copy already reflects.  An entry's position
            # in its origin's lineage of the item is payload.ivv[origin]
            # minus the entries from that origin after it; skip every
            # position the local IVV already counts.
            later = Counter(chain_entry.origin for chain_entry in payload.ops)
            value = entry.value
            computed = entry.ivv.copy()
            for chain_entry in payload.ops:
                origin = chain_entry.origin
                later[origin] -= 1
                if payload.ivv[origin] - later[origin] <= entry.ivv[origin]:
                    continue
                value = chain_entry.op.apply(value)
                computed.increment(origin)
                history.record(chain_entry)
            if computed != payload.ivv:
                raise DeltaChainError(
                    f"op chain for {entry.name!r} produced IVV "
                    f"{computed.as_tuple()}, sender advertised "
                    f"{payload.ivv.as_tuple()}"
                )
            entry.value = value
        else:
            entry.value = payload.value
            # Whole-value adoption leaves a gap: the operations between
            # the old and new IVV were never seen, so the history must
            # not serve chains spanning them.  The floor must rise to
            # the node's DBVV once the *whole session* is absorbed —
            # not a per-item estimate.  (An earlier version raised it to
            # ``V[k] + (v_new[k](x) - v_old[k](x))``, but ``m`` values
            # are origin-level sequence numbers counting updates across
            # *all* items, so the per-item IVV delta under-bounds them
            # and the history could later serve a chain spanning the
            # gap — exactly the divergence DeltaChainError guards
            # against.)  The entries are invalid immediately, so clear
            # them now against the mid-session DBVV (a safe partial
            # floor) and finish in :meth:`_after_accept_installs` when
            # the DBVV reflects every payload of the session.
            history.forget_through(self.dbvv)
            self._pending_floor_items.add(entry.name)

    def _after_accept_installs(self) -> None:
        # The session's DBVV is final: by the prefix property it bounds
        # the origin-level seqno of every update any adopted copy
        # reflects, so it is a correct — and the tightest safe — floor
        # for the histories gapped by whole-value adoptions above.
        for name in self._pending_floor_items:
            self._histories[name].forget_through(self.dbvv)
        self._pending_floor_items.clear()

    def _on_full_rewrite(self, entry: DataItem) -> None:
        # Called after resolve_conflict finished all bookkeeping, so
        # self.dbvv already reflects the merged lineages and the
        # resolution update itself — the correct floor.
        self._histories[entry.name].forget_through(self.dbvv)

    def after_restore(self) -> None:
        """Op histories are a send-side optimization and are not
        persisted; after a restart they are empty but the replica is
        not — every pre-crash update is unreconstructible, so all
        floors rise to the restored DBVV (whole-value fallback until
        fresh updates rebuild the histories).  The base rebuilds the
        content digest.  The histories are built here, over the restored
        schema: a restore registers its items after construction."""
        super().after_restore()
        self._histories = self._empty_histories()
        for history in self._histories.values():
            history.forget_through(self.dbvv)
