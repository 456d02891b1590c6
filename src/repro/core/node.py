"""The epidemic replica node (paper section 5).

:class:`EpidemicNode` binds the data structures of section 4 together and
implements the three protocol activities:

* **Updating** (section 5.3) — a user update lands on the auxiliary copy
  when one exists, otherwise on the regular copy (incrementing the IVV,
  the DBVV, and appending a regular log record).
* **Update propagation** (section 5.1, Figs. 2–3) — the recipient sends
  its DBVV; the source answers either "you are current" (O(1)) or with a
  tail vector D plus item set S built in O(m); the recipient adopts
  dominating copies, flags conflicts, appends log tails, and finally runs
  intra-node propagation (Fig. 4) to replay deferred out-of-bound
  updates.
* **Out-of-bound copying** (section 5.2) — a single item fetched outside
  the schedule becomes an auxiliary copy; regular structures are never
  touched, so the per-origin prefix ordering that DBVV/log correctness
  rests on is preserved.

The node is a passive state machine: it has no I/O or timing of its own.
The cluster simulation (:mod:`repro.cluster.simulation`) moves messages
between nodes; unit tests call the handlers directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.auxiliary import AuxiliaryLog
from repro.core.conflicts import ConflictReporter, ConflictSite
from repro.core.dbvv import DatabaseVersionVector
from repro.core.items import DataItem, ItemStore
from repro.core.log_vector import LogVector
from repro.core.messages import (
    ItemPayload,
    OutOfBoundReply,
    OutOfBoundRequest,
    PropagationReply,
    PropagationRequest,
    YouAreCurrent,
)
from repro.core.version_vector import Ordering, VersionVector
from repro.errors import InvariantViolation, UnknownItemError
from repro.interfaces import ContentDigest
from repro.obs import NULL_COUNTERS, OverheadCounters
from repro.substrate.operations import UpdateOperation

__all__ = ["EpidemicNode", "AcceptOutcome", "IntraNodeOutcome"]


@dataclass
class AcceptOutcome:
    """What AcceptPropagation did, for callers and tests.

    ``adopted``    — items whose incoming copy dominated and was adopted.
    ``skipped``    — items whose incoming copy did not dominate and was
                     not concurrent either (equal — can only arise on the
                     conflict-recovery path; the paper's normal case never
                     produces it, see the inline comment in
                     ``accept_propagation``).
    ``conflicted`` — items declared inconsistent.
    ``records_appended`` / ``records_dropped`` — log-tail bookkeeping.
    """

    adopted: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    conflicted: list[str] = field(default_factory=list)
    records_appended: int = 0
    records_dropped: int = 0


@dataclass
class IntraNodeOutcome:
    """What IntraNodePropagation did."""

    replayed: int = 0
    auxiliaries_discarded: list[str] = field(default_factory=list)
    conflicts: list[str] = field(default_factory=list)


class EpidemicNode:
    """One server's replica of the database plus the protocol state.

    Parameters
    ----------
    node_id:
        This server's index in the fixed replica set ``0..n_nodes-1``.
    n_nodes:
        Size of the replica set (fixed for the database's lifetime,
        paper section 2).
    item_names:
        The database schema; identical on every replica.
    counters:
        Where this node charges its work; defaults to a do-nothing sink.
    """

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        item_names: list[str] | tuple[str, ...],
        counters: OverheadCounters = NULL_COUNTERS,
    ):
        if not 0 <= node_id < n_nodes:
            raise ValueError(f"node_id {node_id} outside replica set 0..{n_nodes - 1}")
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.counters = counters
        self.conflicts = ConflictReporter()
        self.dbvv = DatabaseVersionVector(n_nodes)
        self.log = LogVector(n_nodes)
        self.store = ItemStore(n_nodes, list(item_names))
        self.aux_log = AuxiliaryLog()
        # Origins whose log component legitimately runs ahead of the
        # DBVV: ``{origin: highest such seqno}``.  Pulling from a
        # replica frozen by an unresolved conflict imports log records
        # whose seqnos the conflicted lineage's dropped updates never
        # accounted for, and the gap travels onward — even to replicas
        # that never witnessed the conflict themselves (see
        # ``accept_propagation``, the one site that can create a gap,
        # and the bound check in ``check_invariants``).  A gap heals
        # when later sessions or a conflict resolution push the DBVV
        # component past the recorded seqno.
        self.log_gaps: dict[int, int] = {}
        # Digest of the regular {item: value} state: every regular-copy
        # value write marks the item; ``content_digest`` folds.
        self._digest = ContentDigest()

    # ------------------------------------------------------------------
    # User operations (paper section 5.3)
    # ------------------------------------------------------------------

    def read(self, item: str) -> bytes:
        """The value a user sees: the auxiliary copy when one exists."""
        return self.store[item].current_value()

    def update(self, item: str, op: UpdateOperation) -> None:
        """Apply a user update at this node (paper section 5.3).

        With an auxiliary copy present the update goes to the auxiliary
        value/IVV and is remembered in the auxiliary log; otherwise it
        goes to the regular copy, bumping the IVV's own component, the
        DBVV's own component, and appending ``(item, V_ii)`` to
        ``L_i[i]``.
        """
        entry = self.store[item]
        if entry.has_auxiliary:
            if entry.aux_ivv is None or entry.aux_value is None:
                raise InvariantViolation(
                    f"item {item!r} claims an auxiliary copy but its "
                    "auxiliary value/IVV is missing"
                )
            # Applied before it is logged: an op that raises (a patch
            # beyond the value's end) must not leave a record for the
            # next intra-node replay to trip over.
            value = op.apply(entry.aux_value)
            self.aux_log.append(item, entry.aux_ivv, op)
            entry.aux_value = value
            entry.aux_ivv.increment(self.node_id)
        else:
            entry.value = op.apply(entry.value)
            self._digest.mark(entry.name)
            entry.ivv.increment(self.node_id)
            self.dbvv.record_local_update_by(self.node_id)
            self.log.add(
                self.node_id, item, self.dbvv[self.node_id], self.counters
            )
            self._record_regular_update(entry, op)

    # ------------------------------------------------------------------
    # Extension hooks (overridden by the operation-shipping variant in
    # :mod:`repro.core.delta`; the base protocol copies whole items,
    # the paper's presentation context)
    # ------------------------------------------------------------------

    def _record_regular_update(self, entry: DataItem, op: UpdateOperation) -> None:
        """Called after every update applied to a regular copy (user
        updates and intra-node replays).  The base protocol needs no
        extra bookkeeping."""

    def _payload_for(self, entry: DataItem, remote_dbvv: VersionVector) -> ItemPayload:
        """Build the propagation payload for one selected item.

        ``remote_dbvv`` is the recipient's DBVV from the request — the
        operation-shipping variant uses it to select exactly the update
        records the recipient misses."""
        return ItemPayload(entry.name, entry.value, entry.ivv.copy())

    def _install_payload(self, entry: DataItem, payload: ItemPayload) -> None:
        """Install an adopted payload's data into the regular copy (the
        caller has already verified domination and handles the IVV and
        DBVV bookkeeping)."""
        entry.value = payload.value

    def _on_full_rewrite(self, entry: DataItem) -> None:
        """Called when an item's value is administratively rewritten
        (conflict resolution) — any per-item derived state is stale."""

    def _after_accept_installs(self) -> None:
        """Called once per ``accept_propagation``, after every payload
        has been installed and the DBVV/log bookkeeping for the session
        is complete, but before intra-node propagation.  Variants that
        defer per-item bookkeeping until the session's DBVV is final
        (the operation-shipping mode's history floors) hook in here."""

    def after_restore(self) -> None:
        """Called by the persistence layer after rebuilding a node from
        a snapshot; derived (non-persisted) state must assume nothing
        about the pre-crash history.  The restore path writes item
        values directly, so the content digest starts over with every
        non-empty item marked (nothing is hashed until somebody reads
        it); variants overriding this must call ``super()``."""
        self._digest.reset(entry.name for entry in self.store if entry.value)
        # ``log_gaps`` is derived bookkeeping, not durable state: any
        # component running ahead of the restored DBVV was a recorded
        # gap in the pre-crash node (the snapshot was taken from a
        # state that passed ``check_invariants``), so rebuild the
        # bounds from the structures themselves.
        self.log_gaps.clear()
        for k in range(self.n_nodes):
            max_seqno = self.log[k].max_seqno
            if max_seqno > self.dbvv[k]:
                self.log_gaps[k] = max_seqno

    # ------------------------------------------------------------------
    # Update propagation, source side (paper Fig. 2)
    # ------------------------------------------------------------------

    def make_propagation_request(self) -> PropagationRequest:
        """Step 1 of a pull: the recipient's DBVV, ready to send."""
        return PropagationRequest(self.node_id, self.dbvv.copy())

    def send_propagation(
        self, request: PropagationRequest
    ) -> YouAreCurrent | PropagationReply:
        """The paper's ``SendPropagation`` procedure (Fig. 2), run at the
        source ``j`` on the recipient's DBVV ``V_i``.

        Cost: one DBVV comparison when the recipient is current, else
        O(m) where m is the number of records/items selected — the walk
        of each log tail stops at the first record the recipient already
        has, and the item set S is deduplicated with the per-item
        ``IsSelected`` flags so no set structure and no scan of the
        database is needed (paper section 6).
        """
        remote = request.dbvv
        self.counters.vv_comparisons += 1
        self.counters.vv_components_touched += self.n_nodes
        if remote.dominates_or_equal(self.dbvv):
            return YouAreCurrent(self.node_id)

        tails: list[tuple[tuple[str, int], ...]] = []
        selected: list[DataItem] = []
        mine = self.dbvv.as_tuple()
        theirs = remote.as_tuple()
        entry_of = self.store.lookup()
        for k in range(self.n_nodes):  # pragma: full-scan one tail probe per log component; the request already ships an O(n) DBVV, so O(n) is the session floor (paper section 6)
            if mine[k] <= theirs[k]:
                tails.append(())
                continue
            tail = self.log[k].tail_after(theirs[k], self.counters)
            for item, _seqno in tail:
                entry = entry_of(item)
                if not entry.is_selected:
                    entry.is_selected = True
                    selected.append(entry)
            tails.append(tuple(tail))

        # Only regular copies travel; auxiliary state never leaves the
        # node through scheduled propagation (paper section 5.1).
        payload_for = self._payload_for
        payloads = tuple([payload_for(entry, remote) for entry in selected])
        # Flip the IsSelected flags back — linear in |S|, not in N.
        for entry in selected:
            entry.is_selected = False
        self.counters.items_scanned += len(selected)
        return PropagationReply(self.node_id, tuple(tails), payloads)

    # ------------------------------------------------------------------
    # Update propagation, recipient side (paper Fig. 3)
    # ------------------------------------------------------------------

    def accept_propagation(
        self, reply: PropagationReply
    ) -> tuple[AcceptOutcome, IntraNodeOutcome]:
        """The paper's ``AcceptPropagation`` (Fig. 3) followed by
        ``IntraNodePropagation`` (Fig. 4) on the items just copied.

        A batch: each item is compared and installed once, and DBVV
        rule 3 is applied once, as the sum of the adoptions' deltas,
        after the last item and before the tails are appended.

        Returns both outcomes so callers (and tests) can see exactly
        which items were adopted, skipped, conflicted, and replayed.
        """
        outcome = AcceptOutcome()
        adopted = outcome.adopted
        dropped_items: set[str] = set()
        # The replaced and installed IVVs of every adoption: rule 3
        # absorbs them together, once, after the loop.
        replaced: list[VersionVector] = []
        installed: list[VersionVector] = []
        # Per-session lookups (see ``ItemStore.lookup``: never kept).
        entry_of = self.store.lookup()
        install = self._install_payload
        mark_changed = self._digest.mark

        for payload in reply.items:
            name = payload.name
            entry = entry_of(name)
            ordering = payload.ivv.compare(entry.ivv)
            if ordering is Ordering.DOMINATES:
                replaced.append(entry.ivv)
                install(entry, payload)
                mark_changed(name)
                entry.ivv = payload.ivv.copy()
                installed.append(entry.ivv)
                entry.in_conflict = False
                adopted.append(name)
            elif ordering is Ordering.CONCURRENT:
                entry.in_conflict = True
                self.conflicts.declare(
                    name,
                    self.node_id,
                    ConflictSite.ACCEPT_PROPAGATION,
                    entry.ivv,
                    payload.ivv,
                )
                dropped_items.add(name)
                outcome.conflicted.append(name)
            else:
                # The paper's normal case cannot reach here: a record for
                # x in a tail means the source reflects an update to x
                # the recipient misses, so the incoming IVV dominates
                # (prefix ordering, paper section 7); EQUAL shows up only
                # after earlier conflicts froze an item, and DOMINATED
                # "cannot happen" — we tolerate both by skipping, which
                # keeps criterion C2 (never adopt a non-dominating copy).
                dropped_items.add(name)
                outcome.skipped.append(name)

        # Before the tails: gap detection below compares a shipped seqno
        # with the DBVV *after* this session's adoptions.
        counters = self.counters
        self.dbvv.absorb_item_copies(replaced, installed, counters)

        for k, tail in enumerate(reply.tails):
            if not tail:
                continue
            component = self.log[k]
            newest = component.max_seqno
            covered = self.dbvv[k]
            for item, seqno in tail:
                if dropped_items and item in dropped_items:
                    outcome.records_dropped += 1
                    continue
                if seqno <= newest:
                    # Possible only after a conflict froze an item and a
                    # later tail overlapped records we kept; the existing
                    # newer record already supersedes this one.
                    outcome.records_dropped += 1
                    continue
                component.add(item, seqno, counters)
                newest = seqno
                outcome.records_appended += 1
                if seqno > covered:
                    # The source's log ran ahead of what our DBVV can
                    # account for — it (or some replica upstream of it)
                    # dropped a conflicting adoption, so the conflicted
                    # lineage's updates are missing from the absorbed
                    # IVVs.  Record the gap so the invariant checker
                    # can tell this imported, bounded overhang from a
                    # genuine accounting bug.  Appends are the current
                    # component maximum, so assignment tracks the
                    # highest gapped seqno.
                    self.log_gaps[k] = seqno

        # Charged once per call with the call's totals (one IVV
        # comparison of n components per payload), never per element:
        # the null sink sees O(1) writes per session, a real sink the
        # same sums.
        counters.vv_comparisons += len(reply.items)
        counters.vv_components_touched += self.n_nodes * len(reply.items)
        counters.items_copied += len(outcome.adopted)
        counters.conflicts_detected += len(outcome.conflicted)
        counters.log_records_examined += sum(map(len, reply.tails))

        self._after_accept_installs()
        intra = self.intra_node_propagation(outcome.adopted)
        return outcome, intra

    def pull_from(self, source: "EpidemicNode") -> tuple[AcceptOutcome, IntraNodeOutcome]:
        """Convenience for tests/examples: one full anti-entropy exchange
        with ``source``, bypassing any simulated network.
        """
        answer = source.send_propagation(self.make_propagation_request())
        if isinstance(answer, YouAreCurrent):
            return AcceptOutcome(), IntraNodeOutcome()
        return self.accept_propagation(answer)

    # ------------------------------------------------------------------
    # Intra-node propagation (paper Fig. 4)
    # ------------------------------------------------------------------

    def intra_node_propagation(self, items: list[str]) -> IntraNodeOutcome:
        """Replay deferred out-of-bound updates onto regular copies.

        For each named item that has an auxiliary copy: while the regular
        IVV equals the pre-IVV of the earliest auxiliary record, re-apply
        that record's operation as a fresh local update (IVV, DBVV and
        ``L_ii`` all advance exactly as for a user update).  When the
        auxiliary log drains and the regular copy has caught up with (or
        overtaken) the auxiliary copy, the auxiliary copy is discarded.
        A pre-IVV that *conflicts* with the regular IVV proves
        inconsistent replicas exist and is declared (Fig. 4).
        """
        outcome = IntraNodeOutcome()
        for name in items:
            entry = self.store[name]
            if not entry.has_auxiliary:
                continue
            self._replay_item(entry, outcome)
        return outcome

    def _replay_item(self, entry: DataItem, outcome: IntraNodeOutcome) -> None:
        record = self.aux_log.earliest(entry.name)
        while record is not None:
            self.counters.vv_comparisons += 1
            ordering = entry.ivv.compare(record.pre_ivv)
            if ordering is Ordering.EQUAL:
                entry.value = record.op.apply(entry.value)
                self._digest.mark(entry.name)
                entry.ivv.increment(self.node_id)
                self.dbvv.record_local_update_by(self.node_id)
                self.log.add(
                    self.node_id, entry.name, self.dbvv[self.node_id], self.counters
                )
                self._record_regular_update(entry, record.op)
                self.aux_log.pop_earliest(entry.name)
                self.counters.aux_records_replayed += 1
                outcome.replayed += 1
                record = self.aux_log.earliest(entry.name)
            elif ordering is not Ordering.DOMINATED:
                # CONCURRENT, or DOMINATES: the regular copy moved past
                # the version the record was applied to without it (a
                # pull adopted a newer copy that lacks the local
                # out-of-bound update), so the regular and auxiliary
                # histories have forked.  Paper Fig. 4 says DOMINATES
                # cannot happen; see docs/PROTOCOL.md section 5.
                self.conflicts.declare(
                    entry.name,
                    self.node_id,
                    ConflictSite.INTRA_NODE,
                    entry.ivv,
                    record.pre_ivv,
                )
                self.counters.conflicts_detected += 1
                outcome.conflicts.append(entry.name)
                return
            else:
                # The regular copy is still behind the record's pre-state
                # (DOMINATED); a later propagation will close the gap.
                return
        # Auxiliary log drained for this item: drop the auxiliary copy
        # once the regular copy has caught up (Fig. 4 defers conflict
        # detection here to AcceptPropagation).
        if entry.aux_ivv is None:
            raise InvariantViolation(
                f"auxiliary replay reached item {entry.name!r} without an "
                "auxiliary IVV"
            )
        self.counters.vv_comparisons += 1
        if entry.ivv.dominates_or_equal(entry.aux_ivv):
            entry.drop_auxiliary()
            outcome.auxiliaries_discarded.append(entry.name)

    # ------------------------------------------------------------------
    # Out-of-bound copying (paper section 5.2)
    # ------------------------------------------------------------------

    def make_oob_request(self, item: str) -> OutOfBoundRequest:
        """Build a request to fetch ``item`` immediately from a peer."""
        if item not in self.store:
            raise UnknownItemError(item)
        return OutOfBoundRequest(self.node_id, item)

    def handle_oob_request(self, request: OutOfBoundRequest) -> OutOfBoundReply:
        """Serve an out-of-bound fetch: prefer the auxiliary copy (never
        older than the regular copy — an optimization, not a correctness
        requirement, paper section 5.2).
        """
        entry = self.store[request.item]
        return OutOfBoundReply(
            self.node_id,
            request.item,
            entry.current_value(),
            entry.current_ivv().copy(),
        )

    def accept_oob(self, reply: OutOfBoundReply) -> bool:
        """Adopt an out-of-bound reply; True when the copy was installed.

        Compares the received IVV against the *current* local IVV
        (auxiliary when present, else regular).  A dominating copy is
        installed as the new auxiliary copy; the auxiliary log is *not*
        modified when an older auxiliary copy is overwritten (paper
        section 5.2) — pending records still replay onto the regular
        copy, whose catch-up path is untouched.  Equal-or-dominated
        replies are ignored; concurrent ones are declared inconsistent.
        """
        entry = self.store[reply.item]
        local_ivv = entry.current_ivv()
        self.counters.vv_comparisons += 1
        self.counters.vv_components_touched += self.n_nodes
        ordering = reply.ivv.compare(local_ivv)
        if ordering is Ordering.DOMINATES:
            entry.install_auxiliary(reply.value, reply.ivv)
            return True
        if ordering is Ordering.CONCURRENT:
            entry.in_conflict = True
            self.conflicts.declare(
                reply.item,
                self.node_id,
                ConflictSite.OUT_OF_BOUND,
                local_ivv,
                reply.ivv,
            )
            self.counters.conflicts_detected += 1
        return False

    def copy_out_of_bound(self, item: str, source: "EpidemicNode") -> bool:
        """Convenience: full out-of-bound exchange with ``source``."""
        reply = source.handle_oob_request(self.make_oob_request(item))
        return self.accept_oob(reply)

    # ------------------------------------------------------------------
    # Administration and introspection
    # ------------------------------------------------------------------

    def conflict_lineage(self, item: str) -> VersionVector:
        """The join of every lineage of ``item`` this node knows: the
        regular copy, any auxiliary copy, and the vectors captured in
        this node's conflict reports for the item (the conflicting
        remote copy was never adopted, so its vector survives only in
        the report)."""
        entry = self.store[item]
        merged = entry.ivv.copy()
        if entry.aux_ivv is not None:
            merged.merge_from(entry.aux_ivv)
        for report in self.conflicts.conflicts_for(item):
            for counts in (report.remote_vv, report.local_vv):
                merged.merge_from(VersionVector.from_counts(counts))
        return merged

    def resolve_conflict(
        self, item: str, value: bytes, lineage: VersionVector | None = None
    ) -> VersionVector:
        """Administrative conflict resolution (extension — the paper
        leaves resolution to the application, section 2).

        Installs ``value`` as the item's new regular state whose IVV is
        the join of the regular IVV and ``lineage`` (by default
        :meth:`conflict_lineage`, every lineage this node knows) plus a
        fresh local update.  The resolved copy therefore dominates all
        conflicting lineages and propagates normally.  Pending
        auxiliary records for the item are discarded (they belong to an
        overwritten lineage).  Returns the lineage merged: the journal
        keeps it, because the conflict reports it was read from are
        telemetry that recovery does not restore.
        """
        entry = self.store[item]
        if lineage is None:
            lineage = self.conflict_lineage(item)
        old_ivv = entry.ivv.copy()
        merged = entry.ivv.copy()
        merged.merge_from(lineage)
        entry.value = value
        self._digest.mark(entry.name)
        entry.ivv = merged
        entry.drop_auxiliary()
        self.aux_log.discard_item(item)
        entry.in_conflict = False
        # Account the merge into the DBVV (rule 3 with the join)...
        self.dbvv.absorb_item_copy(old_ivv, entry.ivv, self.counters)
        # ...then the resolution itself is a fresh local update.
        entry.ivv.increment(self.node_id)
        self.dbvv.record_local_update_by(self.node_id)
        self.log.add(self.node_id, item, self.dbvv[self.node_id], self.counters)
        self._on_full_rewrite(entry)
        return lineage

    @property
    def content_digest(self) -> int:
        """The 64-bit digest of the regular ``{item: value}`` state:
        exactly :meth:`ContentDigest.recompute
        <repro.interfaces.ContentDigest.recompute>` over the store.

        Maintained lazily — *marked* on write, *folded* on read — so a
        process that never asks (every ``repro.net`` node) never
        hashes.  Only the simulator's ``DBVVProtocolNode.state_digest``
        reads it.
        """
        return self._digest.token(self._regular_value)

    def _regular_value(self, name: str) -> bytes:
        return self.store[name].value

    def state_fingerprint(self) -> dict[str, tuple[bytes, tuple[int, ...]]]:
        """Regular-copy snapshot ``{item: (value, ivv)}`` used by the
        convergence checker to compare replicas across nodes.
        """
        return {
            entry.name: (entry.value, entry.ivv.as_tuple()) for entry in self.store
        }

    def check_invariants(self) -> None:
        """Assert the cross-structure invariants from DESIGN.md section 6:

        * DBVV equals the column sums of the regular IVVs (rule 3
          correctness) — *except* origins frozen by unresolved conflicts,
          where dropped records legitimately leave the DBVV behind;
        * log structure invariants;
        * every log record's seqno is bounded by the matching DBVV
          component — or, where an unresolved conflict somewhere in the
          cluster left the DBVV behind the record stream, by the gap
          bound recorded when the overhang was imported (``log_gaps``);
        * auxiliary log chains are intact and only reference items that
          still exist.
        """
        self.log.check_invariants()
        self.aux_log.check_invariants()
        # The version vectors' cached totals must agree with a
        # from-scratch recomputation — the caches are maintained
        # incrementally on the mutation hot paths, and a maintenance bug
        # should surface at the session that introduced it, not as
        # silent drift in whatever consumed the stale sum.
        if self.dbvv.total() != self.dbvv.recompute_total():
            raise InvariantViolation(
                f"DBVV cached total {self.dbvv.total()} != recomputed "
                f"{self.dbvv.recompute_total()} on node {self.node_id}"
            )
        for entry in self.store:
            if entry.ivv.total() != entry.ivv.recompute_total():
                raise InvariantViolation(
                    f"IVV cached total for item {entry.name!r} diverged "
                    f"from its components on node {self.node_id}"
                )
        any_conflict = any(entry.in_conflict for entry in self.store)
        frozen = any_conflict or self.conflicts.count != 0
        if not frozen:
            sums = [0] * self.n_nodes
            for entry in self.store:
                for k, count in enumerate(entry.ivv):
                    sums[k] += count
            if sums != list(self.dbvv):
                raise InvariantViolation(
                    f"DBVV {list(self.dbvv)} != IVV column sums {sums} "
                    f"on node {self.node_id}"
                )
        # Every log record's seqno must be covered by the DBVV: a record
        # ``(item, m)`` in origin k's log component asserts "I reflect
        # origin k's first m updates", so ``m <= dbvv[k]`` always — the
        # log is written only after the DBVV advances (rules 1 and 3).
        # The one legitimate exception is a recorded gap: a conflict
        # freezes DBVV accounting for the affected origins (dropped
        # adoptions leave the DBVV behind the record stream), and the
        # overhang travels with propagation to replicas that never saw
        # the conflict themselves — including perfectly conflict-free
        # ones.  ``accept_propagation`` records every such import in
        # ``log_gaps`` with its seqno, so the bound is enforced on
        # *every* replica, frozen or not, up to the recorded gap:
        # anything beyond both the DBVV and the gap bound is a log
        # claiming updates nothing ever accounted for.
        for k in range(self.n_nodes):
            component = self.log[k]
            limit = max(self.dbvv[k], self.log_gaps.get(k, 0))
            if component.max_seqno > limit:
                raise InvariantViolation(
                    f"log component {k} claims seqno {component.max_seqno} "
                    f"but DBVV[{k}] is only {self.dbvv[k]} (recorded gap "
                    f"bound {self.log_gaps.get(k, 0)}) on node {self.node_id}"
                )
        for record in self.aux_log:
            if record.item not in self.store:
                raise InvariantViolation(
                    f"auxiliary log references unknown item {record.item!r}"
                )

    def __repr__(self) -> str:
        return (
            f"EpidemicNode(id={self.node_id}, dbvv={self.dbvv.as_tuple()}, "
            f"items={len(self.store)}, log={len(self.log)}, aux={len(self.aux_log)})"
        )
