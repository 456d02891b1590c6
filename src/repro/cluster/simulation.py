"""The cluster simulation: protocols under identical conditions.

:class:`ClusterSimulation` wires together ``n`` protocol nodes (any
:class:`~repro.interfaces.ProtocolNode` implementation), a
:class:`~repro.cluster.network.SimulatedNetwork`, a peer-selection
policy, an optional failure plan, session retries, and ground-truth
staleness tracking.  Time advances in *rounds*: at the start of each
round the failure plan fires and due retries of previously aborted
sessions run, then every live node performs one synchronization with
the peer its selector chose (crashed peers make the session fail, like
a dead dial-up number).  User updates are applied between rounds by the
caller or a workload driver.

Sessions are *not* atomic: a fault can interrupt one between messages
(see :class:`~repro.interfaces.SessionPhase`), and the simulation
accounts for the leg each aborted session died on and how many bytes it
wasted.  With ``retry_attempts > 1`` an aborted session is re-attempted
in later rounds with capped exponential backoff, falling back to an
alternate peer when the original one is unreachable.

The round loop is one clock over :meth:`ClusterSimulation.session_step`;
:class:`~repro.cluster.event_sim.EventDrivenSimulation` is the other.

Everything is driven by one seeded :class:`random.Random`, so a
simulation is a pure function of (factory, selector, plan, retries,
workload, seed) — the experiments rely on that to be re-runnable.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.cluster.convergence import GroundTruth, fingerprints_equal
from repro.cluster.failures import FailurePlan, Recover
from repro.cluster.network import SimulatedNetwork
from repro.cluster.sanitizer import (
    DURABLE_ENV_VAR,
    SANITIZE_ENV_VAR,
    env_flag,
    sanitize_endpoints,
)
from repro.cluster.scheduler import PeerSelector, RandomSelector
from repro.durable import NodeJournal
from repro.errors import ConvergenceError, InvariantViolation, NodeDownError
from repro.interfaces import ProtocolNode, SessionPhase, SyncStats
from repro.obs import OverheadCounters
from repro.substrate.operations import UpdateOperation

__all__ = ["RoundStats", "ClusterSimulation", "retry_backoff"]

#: Rounds to wait after the first failed attempt; doubled per further
#: failure up to the cap — bounded exponential backoff at round
#: granularity (1 → 2 → 4 → 4 ...).
_BACKOFF_ROUNDS = 1
_MAX_BACKOFF_ROUNDS = 4


def _abort_phase(session: SyncStats) -> SessionPhase | None:
    """The leg a failed session died on, if it moved a message first —
    that traffic bought no state change.  (A dead peer caught at connect
    time fails a session without aborting it: nothing was wasted.)"""
    return session.aborted_phase if session.messages > 0 else None


def retry_backoff(attempt: int) -> int:
    """Rounds to wait after failed attempt number ``attempt`` (1-based)."""
    return min(_BACKOFF_ROUNDS * 2 ** (attempt - 1), _MAX_BACKOFF_ROUNDS)


@dataclass(frozen=True)
class _PendingRetry:
    """One aborted session waiting for its backoff to elapse."""

    node_id: int
    peer: int
    attempt: int        # the attempt number this retry will be
    due_round: int


@dataclass
class RoundStats:
    """What happened during one simulation round."""

    round_no: int
    sessions: int = 0
    identical_sessions: int = 0
    failed_sessions: int = 0
    retried_sessions: int = 0
    items_transferred: int = 0
    conflicts: int = 0
    messages: int = 0
    bytes_sent: int = 0
    bytes_wasted: int = 0
    aborted_by_phase: dict[str, int] = field(default_factory=dict)
    stale_pairs: int | None = None


@dataclass
class ClusterSimulation:
    """``n`` replicas of one database under one protocol.

    Parameters
    ----------
    factory:
        ``factory(node_id, counters) -> ProtocolNode``; called once per
        node.  Each node gets its own counters object so per-node work
        is attributable; :attr:`total_counters` merges them on demand.
    n_nodes:
        Replica set size.
    items:
        The database schema (shared by the ground-truth tracker).
    selector:
        Peer-selection policy (default: uniform random pull).
    failure_plan:
        Declarative crash/recover/partition script (default: none).
    retry_attempts:
        Total attempts per scheduled session, first try included; the
        default of 1 disables retries.  A failed attempt schedules the
        next after :func:`retry_backoff` rounds.  A retry whose original
        peer is unreachable goes to a uniformly chosen reachable peer
        instead of burning the attempt on a dead dial-up number (a
        reachable original peer is retried directly — it may simply
        have lost a message).  Needed by experiment E5's interrupted
        arms.
    sanitize:
        The run-time invariant sanitizer: run the full invariant suite
        on both endpoints after *every* session, not just faulted ones
        (see :mod:`repro.cluster.sanitizer`), and cross-check every
        incremental convergence/staleness answer against the
        from-scratch recomputation.  ``None`` (the default) defers to
        the ``REPRO_SANITIZE`` environment variable.  Needed by CI job
        ``test-sanitized`` and ``tests/cluster/test_sanitizer.py``.
    durable:
        Run the cluster on the durable substrate (:mod:`repro.durable`):
        every node exposing ``attach_journal`` (the DBVV protocol
        adapters do; the baselines predate durability and run unchanged)
        journals its state-changing inputs to an on-disk WAL, and every
        :class:`~repro.cluster.failures.Recover` event rebuilds the node
        from checkpoint + WAL instead of trusting the in-memory object —
        the fail-stop repair path done the way a real deployment must.
        ``None`` (the default) defers to the ``REPRO_DURABLE``
        environment variable.  Journals run with ``fsync`` off: a
        simulated crash never drops the page cache, and the fsync-
        boundary semantics are exercised directly by the durable test
        suite's truncation properties.  Needed by CI job
        ``test-durable`` and ``tests/cluster/test_durable_simulation.py``.
    session_observer:
        Optional ``observer(initiator, peer, stats)`` invoked after
        every attempted session (including faulted ones).  Needed by
        the parity harness (:mod:`repro.net.harness`, CI job
        ``net-parity``), which records the exact session schedule a
        simulation executed so the same schedule can be replayed
        against a networked cluster.
    seed:
        Seed for the simulation's single RNG.
    """

    factory: Callable[[int, OverheadCounters], ProtocolNode]
    n_nodes: int
    items: Sequence[str]
    selector: PeerSelector = field(default_factory=RandomSelector)
    failure_plan: FailurePlan = field(default_factory=FailurePlan)
    retry_attempts: int = 1
    sanitize: bool | None = None
    durable: bool | None = None
    session_observer: Callable[[int, int, SyncStats], None] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retry_attempts < 1:
            raise ValueError(
                f"retry_attempts must be >= 1, got {self.retry_attempts}"
            )
        self.sanitize = env_flag(SANITIZE_ENV_VAR, self.sanitize)
        self.durable = env_flag(DURABLE_ENV_VAR, self.durable)
        self.rng = random.Random(self.seed)
        self.network_counters = OverheadCounters()
        self.network = SimulatedNetwork(self.n_nodes, counters=self.network_counters)
        self.node_counters = [OverheadCounters() for _ in range(self.n_nodes)]
        self.nodes: list[ProtocolNode] = [
            self.factory(node_id, self.node_counters[node_id])
            for node_id in range(self.n_nodes)
        ]
        self.ground_truth = GroundTruth(tuple(self.items))
        self.ground_truth.track(self.nodes, self.network_counters)
        self.round_no = 0
        self.history: list[RoundStats] = []
        self._pending_retries: list[_PendingRetry] = []
        self._durable_tmp: tempfile.TemporaryDirectory | None = None
        self.journals: dict[int, NodeJournal] = {}
        if self.durable:
            for node in self.nodes:
                self._attach_journal(node)

    # -- durable substrate -------------------------------------------------------

    def _durable_root(self) -> Path:
        if self._durable_tmp is None:
            self._durable_tmp = tempfile.TemporaryDirectory(
                prefix="repro-durable-"
            )
        return Path(self._durable_tmp.name)

    def _attach_journal(self, node: ProtocolNode) -> None:
        """Give ``node`` an on-disk journal, if it supports one.

        Nodes without ``attach_journal`` (the baselines) run unchanged —
        durable mode is a per-protocol capability, not a cluster-wide
        requirement, so env-driven durable CI sweeps the whole suite.
        """
        attach = getattr(node, "attach_journal", None)
        if attach is None:
            return
        journal = NodeJournal(
            self._durable_root() / f"node{node.node_id}",
            # A simulated crash never drops the OS page cache, so sim
            # journals skip the fsync cost; the durable suite's
            # truncation properties cover fsync-boundary semantics.
            fsync=False,
        )
        attach(journal)
        self.journals[node.node_id] = journal

    def rebuild_from_journal(self, node_id: int) -> None:
        """In durable mode, rebuild a recovered node from its on-disk
        state — never from the in-memory object — as a repair must.
        Nodes without a journal are left as they are."""
        recover = getattr(self.nodes[node_id], "recover_from_journal", None)
        if recover is None or node_id not in self.journals:
            return
        recover()
        # The rebuilt replica must be re-examined wholesale by the
        # incremental staleness tracker (object identity changed).
        self.ground_truth.note_node_refresh(node_id)

    # -- workload entry points ---------------------------------------------------

    def apply_update(self, node_id: int, item: str, op: UpdateOperation) -> None:
        """Apply one user update at ``node_id`` and record it in the
        ground truth.  Updating a crashed node raises — users of a down
        server get an error, they don't silently update elsewhere.
        """
        if not self.network.is_up(node_id):
            raise NodeDownError(node_id)
        self.nodes[node_id].user_update(item, op)
        self.ground_truth.apply(item, op)

    def up_nodes(self) -> list[int]:
        """Ids of currently live nodes."""
        return [k for k in range(self.n_nodes) if self.network.is_up(k)]

    # -- round execution ---------------------------------------------------------

    def run_round(self) -> RoundStats:
        """One round: failure events, due retries, then one session per
        live node.

        Sessions run in a random order each round (not ascending node
        id): real anti-entropy sessions are concurrent, and a fixed
        order would let one round cascade an update across the whole
        cluster, flattering every schedule's convergence numbers.
        """
        return self._round(self._random_sessions)

    def _random_sessions(self, stats: RoundStats) -> None:
        order = list(range(self.n_nodes))
        self.rng.shuffle(order)
        for node_id in order:
            if not self.network.is_up(node_id):
                continue
            peer = self.selector.peer_for(node_id, self.n_nodes, self.round_no, self.rng)
            self._run_session(node_id, peer, stats)

    def _round(self, sessions: Callable[[RoundStats], None]) -> RoundStats:
        """The round clock: failure events (a journaled node a
        :class:`Recover` repairs is rebuilt from disk), due retries —
        every kind of round owes aborted sessions that service — then
        ``sessions``, then the round's traffic and staleness."""
        self.round_no += 1
        for event in self.failure_plan.apply_round(self.round_no, self.network):
            if isinstance(event, Recover):
                self.rebuild_from_journal(event.node)
        stats = RoundStats(self.round_no)
        msgs_before = self.network_counters.messages_sent
        bytes_before = self.network_counters.bytes_sent
        self._run_due_retries(stats)
        sessions(stats)
        stats.messages = self.network_counters.messages_sent - msgs_before
        stats.bytes_sent = self.network_counters.bytes_sent - bytes_before
        stats.stale_pairs = self._sample_stale_pairs()
        self.history.append(stats)
        return stats

    def _sample_stale_pairs(self) -> int:
        """End-of-round staleness, cross-checked in sanitizer mode: the
        incremental dirty-frontier count must equal the from-scratch
        recomputation pair for pair."""
        fast = self.ground_truth.stale_pairs(self.nodes)
        if self.sanitize and self.ground_truth.tracking(self.nodes):
            self.network_counters.tracking_crosschecks += 1
            full = self.ground_truth.recompute_staleness(self.nodes)[0]
            if fast != full:
                raise InvariantViolation(
                    "incremental staleness tracking diverged from the "
                    f"from-scratch recomputation at round {self.round_no}: "
                    f"incremental={fast}, recomputed={full}"
                )
        return fast

    def _run_due_retries(self, stats: RoundStats) -> None:
        """Re-attempt aborted sessions whose backoff has elapsed."""
        due = [r for r in self._pending_retries if r.due_round <= self.round_no]
        if not due:
            return
        self._pending_retries = [
            r for r in self._pending_retries if r.due_round > self.round_no
        ]
        for retry in due:
            if not self.network.is_up(retry.node_id):
                # The retrying node itself crashed while backing off;
                # its catch-up is the recovery path's job, not ours.
                continue
            peer = retry.peer
            if not self.network.can_reach(retry.node_id, peer):
                peer = self._alternate_peer_for(retry.node_id, peer)
            stats.retried_sessions += 1
            self.network_counters.sessions_retried += 1
            self._run_session(retry.node_id, peer, stats, attempt=retry.attempt)

    def _alternate_peer_for(self, node_id: int, failed_peer: int) -> int:
        """A uniformly chosen reachable peer other than the failed one;
        the failed peer when nobody else is reachable."""
        candidates = [
            k
            for k in range(self.n_nodes)
            if k not in (node_id, failed_peer) and self.network.can_reach(node_id, k)
        ]
        if not candidates:
            return failed_peer
        return self.rng.choice(candidates)

    def run_full_mesh_round(self) -> RoundStats:
        """One round where every ordered pair synchronizes once.

        Used by experiments that must guarantee transitive coverage in a
        single round (e.g. measuring per-session costs without peer-
        selection noise).
        """
        return self._round(self._full_mesh_sessions)

    def _full_mesh_sessions(self, stats: RoundStats) -> None:
        for node_id in range(self.n_nodes):
            if not self.network.is_up(node_id):
                continue
            for peer in range(self.n_nodes):
                if peer == node_id:
                    continue
                self._run_session(node_id, peer, stats)

    def _run_session(
        self, node_id: int, peer: int, stats: RoundStats, attempt: int = 1
    ) -> None:
        """The round clock's view of one session: its :class:`RoundStats`
        and, for a failed attempt, the retry."""
        stats.sessions += 1
        session = self.session_step(node_id, peer)
        if session.failed:
            stats.failed_sessions += 1
            phase = _abort_phase(session)
            if phase is not None:
                stats.bytes_wasted += session.bytes_sent
                stats.aborted_by_phase[phase.value] = (
                    stats.aborted_by_phase.get(phase.value, 0) + 1
                )
            self._schedule_retry(node_id, peer, attempt)
            return
        if session.identical:
            stats.identical_sessions += 1
        stats.items_transferred += session.items_transferred
        stats.conflicts += session.conflicts

    def session_step(self, node_id: int, peer: int) -> SyncStats:
        """One session ``node_id`` → ``peer``, as both clocks run it:
        reachability (an unreachable peer fails the session without a
        message), ``sync_with``, the sanitizer sweep, the observer, the
        ground truth's adoptions, then for a failed session abort
        accounting and the fault-path invariant check."""
        if not self.network.can_reach(node_id, peer):
            session = SyncStats(failed=True)
            if self.session_observer is not None:
                self.session_observer(node_id, peer, session)
            return session
        session = self.nodes[node_id].sync_with(self.nodes[peer], self.network)
        if self.sanitize:
            sanitize_endpoints(
                self.nodes, (node_id, peer), self.network_counters
            )
        if self.session_observer is not None:
            self.session_observer(node_id, peer, session)
        # A failed session may have changed values before its fault.
        self.ground_truth.note_adoptions(session.adopted_items)
        if session.failed:
            self._note_abort(node_id, peer, session)
        return session

    def _schedule_retry(self, node_id: int, peer: int, attempt: int) -> None:
        if attempt >= self.retry_attempts:
            return
        self._pending_retries.append(
            _PendingRetry(
                node_id, peer, attempt + 1, self.round_no + retry_backoff(attempt)
            )
        )

    def _note_abort(self, node_id: int, peer: int, session: SyncStats) -> None:
        """Account an aborted session and verify neither endpoint was
        left inconsistent by the interruption."""
        phase = _abort_phase(session)
        if phase is not None:
            self.network_counters.sessions_aborted += 1
            self.network_counters.bytes_wasted_in_aborted_sessions += (
                session.bytes_sent
            )
            self.network_counters.bump(phase.counter_name())
        # An interrupted session must never leave either side
        # inconsistent.  The sanitizer (when on) already swept both
        # endpoints right after the session; don't sweep twice.
        if not self.sanitize:
            for endpoint in (node_id, peer):
                check = getattr(self.nodes[endpoint], "check_invariants", None)
                if check is not None:
                    check()

    # -- convergence ---------------------------------------------------------------

    def converged(self) -> bool:
        """True when all live replicas hold identical durable state.

        Crashed nodes are excluded — they will catch up after recovery
        (criterion C3 speaks of eventual catch-up).
        """
        live = [self.nodes[k] for k in self.up_nodes()]
        return fingerprints_equal(
            live,
            crosscheck=bool(self.sanitize),
            counters=self.network_counters,
        )

    def _plan_pending(self) -> bool:
        """True while the failure plan still has unfired events — a
        scheduled recovery can reintroduce divergence, so convergence
        must not be declared before the plan has fully played out."""
        return self.failure_plan.pending_after(self.round_no)

    def run_until_converged(self, max_rounds: int = 1000) -> int:
        """Run rounds until live replicas converge; returns the count.

        A non-converged state after ``max_rounds`` raises, because
        silent non-convergence is exactly the failure mode the
        experiments must catch.
        """
        for _ in range(max_rounds):
            if not self._plan_pending() and self.converged():
                return self.round_no
            self.run_round()
        if self.converged():
            return self.round_no
        raise ConvergenceError(
            f"replicas failed to converge within {max_rounds} rounds "
            f"(protocol={self.nodes[0].protocol_name}, "
            f"selector={self.selector.describe()})"
        )

    # -- accounting ------------------------------------------------------------------

    @property
    def total_counters(self) -> OverheadCounters:
        """All per-node counters plus the network's, merged in full.

        The network's counters carry more than traffic volume —
        aborted-session accounting, retry counts, sanitizer sweeps,
        staleness re-examinations — so they merge field-for-field like
        every per-node object rather than being hand-copied."""
        merged = OverheadCounters()
        for counters in self.node_counters:
            merged = merged.merged_with(counters)
        return merged.merged_with(self.network_counters)

    def total_conflicts(self) -> int:
        return sum(node.conflict_count() for node in self.nodes)
