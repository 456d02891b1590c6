"""The invariant oracle: what must hold in every explored state.

The oracle catalogue (docs/PROTOCOL.md section 11):

``node-invariants``
    The per-node cross-structure checks, via the same
    ``check_invariants`` paths the run-time sanitizer sweeps
    (:func:`repro.cluster.sanitizer.sanitize_endpoints`): DBVV = IVV
    column sums, strictly increasing seqnos per log component, log
    seqnos bounded by the DBVV, auxiliary-log chain integrity.  Paper
    Theorem 2's bound (at most N records per component, n·N in all)
    needs no check: a component is a map keyed by item, so it cannot
    hold two records for one item.
``monotonicity``
    Criterion C2 made mechanical: every labelled version vector a
    protocol reports through ``exploration_vectors()`` must grow
    component-wise along every transition.  A replica that adopts a
    non-dominating copy moves some component backwards and is caught
    on the very transition that did it.
``action-crash``
    The action raised an unexpected error — protocol code crashed on a
    reachable schedule.
``convergence`` / ``aux-not-drained`` / ``no-fixpoint`` / ``closure-crash``
    Criterion C3 on quiescent suffixes: from the explored state, a
    deterministic closure — revive every node, run fault-free
    anti-entropy rounds over all ordered pairs to a fixpoint — must end
    with identical replicas and (for the DBVV family) no auxiliary
    copies or auxiliary-log records left.  States where a conflict has
    been detected (including conflicts the closure itself surfaces) are
    exempt from the equality requirement: detection *is* the specified
    outcome for inconsistent replicas (C1), resolution is external.
``differential``
    When several protocols are driven through the same schedule
    (:class:`~repro.explore.world.DifferentialWorld`), the causal
    members' conflict-free closures must agree item by item, and — on
    fault-free configurations, where session outcomes are provably
    identical across members — they must also agree on whether the
    schedule produced a conflict at all (a protocol that silently
    merges concurrent updates is caught here).  LWW members
    (wuu-bernstein) are excluded from both cross-checks — their
    tie-break is deliberately different — but still self-converge.

Closure results are memoized on the budget-free protocol state, so the
convergence oracle costs one closure per *distinct* protocol state, not
one per explored schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.sanitizer import sanitize_endpoints
from repro.core.protocol import DBVVProtocolNode
from repro.errors import InvariantViolation, ReplicationError
from repro.explore.world import DifferentialWorld, ProtocolWorld, ordered_pairs
from repro.obs import OverheadCounters

__all__ = ["InvariantOracle", "OracleViolation", "VectorSnapshot"]

#: ``{(member, node, label): components}`` — one monotonicity probe.
VectorSnapshot = dict[tuple[int, int, str], tuple[int, ...]]

AnyWorld = ProtocolWorld | DifferentialWorld


@dataclass(frozen=True)
class OracleViolation:
    """One invariant failure at one explored state.

    ``check``  — catalogue name (see the module docstring).
    ``detail`` — human-readable specifics.
    ``node``   — the node the violation localizes to, or ``-1``.
    """

    check: str
    detail: str
    node: int = -1

    def describe(self) -> str:
        where = f" at node {self.node}" if self.node >= 0 else ""
        return f"[{self.check}]{where}: {self.detail}"


def _members(world: AnyWorld) -> list[ProtocolWorld]:
    if isinstance(world, DifferentialWorld):
        return world.worlds
    return [world]


class InvariantOracle:
    """Evaluates the oracle catalogue against explored states."""

    def __init__(self) -> None:
        self._closure_memo: dict[bytes, OracleViolation | None] = {}
        self.closure_runs = 0
        self.closure_memo_hits = 0

    # -- per-state checks ------------------------------------------------------

    def vector_snapshot(self, world: AnyWorld) -> VectorSnapshot:
        """Capture every monotonic vector for a later
        :meth:`check_transition` against the successor state."""
        snapshot: VectorSnapshot = {}
        for m_idx, member in enumerate(_members(world)):
            for node in member.nodes:
                for label, components in node.exploration_vectors().items():
                    snapshot[(m_idx, node.node_id, label)] = components
        return snapshot

    def check_state(self, world: AnyWorld) -> OracleViolation | None:
        """Structural invariants of one state (no transition context)."""
        for member in _members(world):
            violation = self._check_member_state(member)
            if violation is not None:
                return violation
        return None

    def _check_member_state(self, member: ProtocolWorld) -> OracleViolation | None:
        counters = OverheadCounters()
        for node in member.nodes:
            try:
                sanitize_endpoints(member.nodes, [node.node_id], counters)
            except InvariantViolation as exc:
                return OracleViolation(
                    "node-invariants",
                    f"{member.protocol}: {exc}",
                    node.node_id,
                )
        return None

    def check_transition(
        self, before: VectorSnapshot, world: AnyWorld, action_text: str
    ) -> OracleViolation | None:
        """Monotonicity across the transition that produced ``world``."""
        after = self.vector_snapshot(world)
        for key, old in before.items():
            new = after.get(key)
            if new is None:
                continue
            if len(new) == len(old) and all(n >= o for n, o in zip(new, old)):
                continue
            m_idx, node_id, label = key
            return OracleViolation(
                "monotonicity",
                f"vector {label!r} moved backwards on {action_text}: "
                f"{old} -> {new}",
                node_id,
            )
        return None

    # -- quiescent-suffix convergence ------------------------------------------

    def check_quiescence(self, world: AnyWorld) -> OracleViolation | None:
        """C3 from this state: a fault-free closure must converge (or a
        conflict must have been detected).  Memoized on the budget-free
        protocol state."""
        key = world.protocol_key()
        if key in self._closure_memo:
            self.closure_memo_hits += 1
            return self._closure_memo[key]
        self.closure_runs += 1
        violation = self._run_closure(world)
        self._closure_memo[key] = violation
        return violation

    def _run_closure(self, world: AnyWorld) -> OracleViolation | None:
        cloned = world.clone()
        members = _members(cloned)
        for member in members:
            for node_id in range(member.config.n_nodes):
                member.network.set_up(node_id)
            member.network.clear_armed_faults()
            violation = self._converge_member(member)
            if violation is not None:
                return violation
        causal_all = [m for m in members if m.nodes[0].causal_values]
        if len(causal_all) >= 2 and not cloned.config.fault_variants:
            # Conflict agreement.  On fault-free schedules the causal
            # protocols evolve identical item IVVs (same updates, same
            # session outcomes), so whether the history is conflicted is
            # a schedule-level fact they must agree on.  Mid-session
            # fault variants void this: a fault can abort one protocol's
            # session after the other's already completed (their message
            # counts differ), legitimately diverging the adoption order.
            flags = {m.protocol: m.total_conflicts() > 0 for m in causal_all}
            if len(set(flags.values())) > 1:
                return OracleViolation(
                    "differential",
                    "causal protocols disagree on conflict existence "
                    f"for the same schedule: {flags}",
                )
        causal = [m for m in causal_all if m.total_conflicts() == 0]
        if len(causal) >= 2:
            reference = causal[0].nodes[0].state_fingerprint()
            for member in causal[1:]:
                values = member.nodes[0].state_fingerprint()
                if values != reference:
                    return OracleViolation(
                        "differential",
                        f"{causal[0].protocol} and {member.protocol} closed "
                        f"the same schedule to different values: "
                        f"{reference!r} vs {values!r}",
                    )
        return None

    def _converge_member(self, member: ProtocolWorld) -> OracleViolation | None:
        n_nodes = member.config.n_nodes
        max_rounds = 2 * n_nodes + 4
        previous = member.protocol_key()
        stabilized = False
        for _round in range(max_rounds):
            for initiator, responder in ordered_pairs(n_nodes):
                try:
                    member.nodes[initiator].sync_with(
                        member.nodes[responder], member.network
                    )
                except (ReplicationError, ValueError) as exc:
                    return OracleViolation(
                        "closure-crash",
                        f"{member.protocol}: session "
                        f"{initiator}<-{responder} during quiescent closure "
                        f"raised {type(exc).__name__}: {exc}",
                        initiator,
                    )
            violation = self._check_member_state(member)
            if violation is not None:
                return violation
            current = member.protocol_key()
            if current == previous:
                stabilized = True
                break
            previous = current
        if member.total_conflicts() > 0:
            # Conflict detected (possibly by the closure itself): C1's
            # specified outcome; equality is not required of frozen items.
            return None
        if not stabilized:
            return OracleViolation(
                "no-fixpoint",
                f"{member.protocol}: closure did not stabilize within "
                f"{max_rounds} full anti-entropy rounds",
            )
        reference = member.nodes[0].state_fingerprint()
        for node in member.nodes[1:]:
            values = node.state_fingerprint()
            if values != reference:
                return OracleViolation(
                    "convergence",
                    f"{member.protocol}: replicas 0 and {node.node_id} "
                    f"disagree after quiescent closure: "
                    f"{reference!r} vs {values!r}",
                    node.node_id,
                )
        for node in member.nodes:
            if not isinstance(node, DBVVProtocolNode):
                continue
            lingering = [
                entry.name for entry in node.node.store if entry.has_auxiliary
            ]
            if lingering or len(node.node.aux_log) != 0:
                return OracleViolation(
                    "aux-not-drained",
                    f"auxiliary state survived a conflict-free closure: "
                    f"copies for {lingering!r}, "
                    f"{len(node.node.aux_log)} pending records",
                    node.node_id,
                )
        return None
