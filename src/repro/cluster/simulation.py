"""The cluster simulation: protocols under identical conditions.

:class:`ClusterSimulation` wires together ``n`` protocol nodes (any
:class:`~repro.interfaces.ProtocolNode` implementation), a
:class:`~repro.cluster.network.SimulatedNetwork`, a peer-selection
policy, an optional failure plan, a retry policy, and ground-truth
staleness tracking.  Time advances in *rounds*: at the start of each
round the failure plan fires and due retries of previously aborted
sessions run, then every live node performs one synchronization with
the peer its selector chose (crashed peers make the session fail, like
a dead dial-up number).  User updates are applied between rounds by the
caller or a workload driver.

Sessions are *not* atomic: a fault can interrupt one between messages
(see :class:`~repro.interfaces.SessionPhase`), and the simulation
accounts for how far each aborted session got and how many bytes it
wasted.  The :class:`RetryPolicy` layer re-attempts aborted sessions in
later rounds with capped exponential backoff, optionally falling back
to an alternate peer when the original one is unreachable.

Everything is driven by one seeded :class:`random.Random`, so a
simulation is a pure function of (factory, selector, plan, policy,
workload, seed) — the experiments rely on that to be re-runnable.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.cluster.convergence import GroundTruth, fingerprints_equal
from repro.cluster.coverage import SessionRecord, TransitiveCoverageTracker
from repro.cluster.failures import FailurePlan, Recover
from repro.cluster.network import LinkStats, SimulatedNetwork
from repro.cluster.sanitizer import sanitize_enabled, sanitize_endpoints
from repro.cluster.scheduler import PeerSelector, RandomSelector
from repro.durable import NodeJournal, durable_enabled
from repro.errors import (
    ConvergenceError,
    InvariantViolation,
    MessageLostError,
    NodeDownError,
)
from repro.interfaces import ProtocolNode, StateVersion, SyncStats
from repro.obs import OverheadCounters
from repro.substrate.operations import UpdateOperation

if TYPE_CHECKING:
    from repro.metrics.reporting import Table

__all__ = ["RetryPolicy", "RoundStats", "ClusterSimulation"]


@dataclass(frozen=True)
class RetryPolicy:
    """How aborted synchronization sessions are re-attempted.

    ``max_attempts``
        Total attempts per scheduled session, first try included — the
        default of 1 disables retries (the pre-retry behavior).
    ``backoff_rounds`` / ``max_backoff_rounds``
        A failed attempt ``a`` (1-based) schedules the next one
        ``min(backoff_rounds * 2**(a-1), max_backoff_rounds)`` rounds
        later — bounded exponential backoff at round granularity.
    ``alternate_peer``
        When the original peer is unreachable at retry time, fall back
        to a uniformly chosen reachable peer instead of burning the
        attempt on a dead dial-up number.  (A reachable original peer is
        always retried directly — it may simply have suffered a lost
        message.)
    """

    max_attempts: int = 1
    backoff_rounds: int = 1
    max_backoff_rounds: int = 4
    alternate_peer: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_rounds < 1:
            raise ValueError(
                f"backoff_rounds must be >= 1, got {self.backoff_rounds}"
            )
        if self.max_backoff_rounds < self.backoff_rounds:
            raise ValueError(
                "max_backoff_rounds must be >= backoff_rounds "
                f"({self.max_backoff_rounds} < {self.backoff_rounds})"
            )

    def backoff_for(self, attempt: int) -> int:
        """Rounds to wait after failed attempt number ``attempt``."""
        return min(self.backoff_rounds * 2 ** (attempt - 1), self.max_backoff_rounds)

    def retries_enabled(self) -> bool:
        return self.max_attempts > 1


@dataclass(frozen=True)
class _PendingRetry:
    """One aborted session waiting for its backoff to elapse."""

    node_id: int
    peer: int
    attempt: int        # the attempt number this retry will be
    due_round: int


@dataclass(frozen=True)
class _QuiescentStamp:
    """Proof carried by one ordered pair that its last real session was
    an identical two-message exchange, with everything needed to replay
    that exchange's accounting without dispatching it.

    Valid while both endpoints' :class:`~repro.interfaces.StateVersion`
    still equal the recorded ones (DBVVs are monotone, so an equal
    certificate can only mean *nothing happened*, never a round trip
    through divergence and back) and the network's ``fabric_epoch`` is
    unchanged (no crash/recovery/drop wiped the delta-VV codec caches
    the recorded frame sizes depend on).

    Frame sizes are only reproducible once the wire codec's per-link
    delta caches reach steady state: the first identical exchange may
    ship a full version vector, every later one the same zero-change
    delta.  A freshly recorded stamp is therefore an unconfirmed
    *candidate*; only after a second identical exchange repeats the
    same byte counts (``confirmed``) may the pair be skipped.

    The hot-path validity check compares the endpoints' *generation
    clocks* (``ClusterSimulation._node_gen``) instead of recomputing
    state versions: the driver bumps a node's clock on every event that
    can change its durable state (user updates, any session that is not
    a clean identical exchange), the same incremental-tracking contract
    the ground-truth dirty frontier already relies on.  The recorded
    ``StateVersion`` pair is kept for the sanitizer cross-check and for
    record-time gating (a conflicted or gapped replica has no
    certificate and is never stamped).
    """

    version_initiator: StateVersion
    version_responder: StateVersion
    gen_initiator: int
    gen_responder: int
    request_bytes: int
    reply_bytes: int
    modelled_bytes: int
    epoch: int
    #: Live accounting targets, resolved once at record time so a replay
    #: is pure attribute arithmetic: the two directed LinkStats, the
    #: responder's counter bundle, its replica-set width (the
    #: ``vv_components_touched`` charge of the one DBVV comparison), and
    #: a prebuilt immutable-by-convention SyncStats handed to observers.
    forward_link: LinkStats = field(default_factory=LinkStats)
    backward_link: LinkStats = field(default_factory=LinkStats)
    responder_counters: OverheadCounters = field(default_factory=OverheadCounters)
    n_components: int = 0
    session: SyncStats = field(default_factory=SyncStats)
    confirmed: bool = False


@dataclass(frozen=True)
class _UniformStamp:
    """Proof that *every* pair's session would be the same identical
    exchange: all replicas hold the same certified ``StateVersion``, so
    per-pair warm-up is unnecessary — one observed exchange stamps the
    whole cluster at once.

    Sound only in modelled mode (``wire_size()`` is a pure function of
    the message) for protocols declaring
    ``symmetric_identical_exchange`` (request size depends only on the
    — cluster-wide equal — DBVV value; reply is constant-size), and
    only recorded while every node is up in a single partition group,
    so a skip never predicts success for a session the fabric would
    fail.  Validity is O(1): the cluster-wide generation total
    (``ClusterSimulation._gen_total``) and the network's
    ``fabric_epoch`` both unchanged means no node's durable state and
    no fabric condition has changed since the sweep that recorded it.
    """

    version: StateVersion
    gen_total: int
    epoch: int
    request_bytes: int
    reply_bytes: int
    session: SyncStats


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
    retry_policy:
        How aborted sessions are re-attempted (default: no retries).
    check_invariants_on_fault:
        After every faulted session, run ``check_invariants()`` on both
        endpoints that expose it (the DBVV adapters do) — an interrupted
        session must never leave either side in an inconsistent state.
    sanitize:
        The run-time invariant sanitizer: run the full invariant suite
        on both endpoints after *every* session, not just faulted ones
        (see :mod:`repro.cluster.sanitizer`), and cross-check every
        incremental convergence/staleness answer against the
        from-scratch recomputation.  ``None`` (the default) defers to
        the ``REPRO_SANITIZE`` environment variable.
    wire:
        Run the network in encoded mode: every delivery round-trips
        through the binary codec in :mod:`repro.wire` and byte counters
        become byte-exact frame lengths (with the sanitizer on, each
        delivery also verifies ``decode(encode(m)) == m``).  ``None``
        defers to the ``REPRO_WIRE`` environment variable.
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
        suite's truncation properties.
    data_dir:
        Where durable mode keeps its per-node directories
        (``<data_dir>/node<k>/``).  ``None`` uses a private temporary
        directory that lives as long as the simulation object.
    incremental_tracking:
        Maintain convergence and staleness incrementally (state-version
        comparison + ground-truth dirty frontier) so per-round query
        cost is proportional to what changed, not ``n·N``.  ``False``
        restores the from-scratch recomputation every round — the
        legacy behavior, kept as the scale benchmark's baseline.
    quiescent_fastpath:
        Exploit the paper's O(1) identical-DBVV detection in the round
        loop itself: a pair whose last real session answered
        ``YouAreCurrent`` is *replayed* (traffic charged, no messages
        moved) for as long as both endpoints' state-version
        certificates are provably unchanged and the network fabric is
        transparent (no loss, no armed faults, no cache-wiping events
        since the stamp).  Round statistics, counters, link stats, and
        node state are identical to the unskipped loop — only
        ``fastpath_skips`` records that the dispatch was elided.  With
        the sanitizer on, every would-be skip runs the real session and
        cross-checks the prediction instead.  ``False`` disables both
        the stamps and the checks — the equivalence baseline.
    session_observer:
        Optional ``observer(initiator, peer, stats)`` invoked after
        every attempted session (including faulted ones).  The parity
        harness (:mod:`repro.net.harness`) uses it to record the exact
        session schedule a simulation executed, so the same schedule
        can be replayed against a networked cluster.
    seed:
        Seed for the simulation's single RNG.
    """

    factory: Callable[[int, OverheadCounters], ProtocolNode]
    n_nodes: int
    items: Sequence[str]
    selector: PeerSelector = field(default_factory=RandomSelector)
    failure_plan: FailurePlan = field(default_factory=FailurePlan)
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    check_invariants_on_fault: bool = True
    sanitize: bool | None = None
    wire: bool | None = None
    durable: bool | None = None
    data_dir: str | None = None
    incremental_tracking: bool = True
    quiescent_fastpath: bool = True
    session_observer: Callable[[int, int, SyncStats], None] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        self.sanitize = sanitize_enabled(self.sanitize)
        self.durable = durable_enabled(self.durable)
        self.rng = random.Random(self.seed)
        self.network_counters = OverheadCounters()
        self.network = SimulatedNetwork(
            self.n_nodes,
            counters=self.network_counters,
            wire=self.wire,
            sanitize=self.sanitize,
        )
        self.wire = self.network.wire
        self.node_counters = [OverheadCounters() for _ in range(self.n_nodes)]
        self.nodes: list[ProtocolNode] = [
            self.factory(node_id, self.node_counters[node_id])
            for node_id in range(self.n_nodes)
        ]
        self.ground_truth = GroundTruth(tuple(self.items))
        if self.incremental_tracking:
            self.ground_truth.track(self.nodes, self.network_counters)
        self.coverage = TransitiveCoverageTracker(self.n_nodes)
        self.round_no = 0
        self.history: list[RoundStats] = []
        self._pending_retries: list[_PendingRetry] = []
        # Quiescent-pair stamps, keyed by ordered (initiator, peer).
        self._quiescent: dict[tuple[int, int], _QuiescentStamp] = {}
        # Per-node generation clocks: bumped on every driver-mediated
        # event that can change a node's durable state.  A stamp whose
        # recorded generations still match proves neither endpoint was
        # touched since the recorded identical exchange.
        self._node_gen = [0] * self.n_nodes
        # Cluster-wide generation total: bumped alongside every
        # ``_node_gen`` bump, so an unchanged total is an O(1) proof
        # that *no* node's durable state changed — the validity clock
        # of the uniform stamp.
        self._gen_total = 0
        self._uniform: _UniformStamp | None = None
        self._uniform_attempt_round = -1
        self._durable_tmp: tempfile.TemporaryDirectory | None = None
        self.journals: dict[int, NodeJournal] = {}
        if self.durable:
            for node in self.nodes:
                self._attach_journal(node)

    # -- durable substrate -------------------------------------------------------

    def _durable_root(self) -> Path:
        if self.data_dir is not None:
            return Path(self.data_dir)
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

    def _recover_durable_nodes(self, fired: list[object]) -> None:
        """Rebuild every node a :class:`Recover` event just repaired
        from its on-disk state — never from the in-memory object."""
        for event in fired:
            if not isinstance(event, Recover):
                continue
            node = self.nodes[event.node]
            recover = getattr(node, "recover_from_journal", None)
            if recover is None or event.node not in self.journals:
                continue
            recover()
            # The rebuilt replica must be re-examined wholesale by the
            # incremental staleness tracker (object identity changed).
            self.ground_truth.note_node_refresh(event.node)

    # -- workload entry points ---------------------------------------------------

    def apply_update(self, node_id: int, item: str, op: UpdateOperation) -> None:
        """Apply one user update at ``node_id`` and record it in the
        ground truth.  Updating a crashed node raises — users of a down
        server get an error, they don't silently update elsewhere.
        """
        if not self.network.is_up(node_id):
            raise NodeDownError(node_id)
        self.nodes[node_id].user_update(item, op)
        self._node_gen[node_id] += 1
        self._gen_total += 1
        self.ground_truth.apply(item, op)

    def up_nodes(self) -> list[int]:
        """Ids of currently live nodes."""
        return [k for k in range(self.n_nodes) if self.network.is_up(k)]

    def add_node(
        self,
        build: Callable[[int, OverheadCounters, int], ProtocolNode],
    ) -> int:
        """Grow the cluster by one replica (dynamic-membership extension).

        ``build(node_id, counters, n_nodes)`` constructs the newcomer
        for the *new* replica-set size.  Every existing node's view is
        expanded first (nodes must expose ``expand_replica_set`` — the
        DBVV protocol adapters do; the baselines predate the extension),
        then the fresh all-zero replica joins and catches up through
        ordinary propagation.  Returns the new node's id.
        """
        new_n = self.n_nodes + 1
        for node in self.nodes:
            expand = getattr(node, "expand_replica_set", None)
            if expand is None:
                raise TypeError(
                    f"{type(node).__name__} does not support dynamic "
                    "membership"
                )
            expand(new_n)
        new_id = self.network.add_node()
        counters = OverheadCounters()
        self.node_counters.append(counters)
        newcomer = build(new_id, counters, new_n)
        if newcomer.node_id != new_id or newcomer.n_nodes != new_n:
            raise ValueError(
                f"build() returned a node for id {newcomer.node_id}/"
                f"{newcomer.n_nodes}, expected {new_id}/{new_n}"
            )
        self.nodes.append(newcomer)
        self.n_nodes = new_n
        # Every existing replica's view was just expanded and the
        # newcomer starts fresh: advance all generation clocks (the
        # network's epoch bump already killed existing stamps).
        self._node_gen = [gen + 1 for gen in self._node_gen]
        self._node_gen.append(0)
        self._gen_total += 1
        if self.durable:
            self._attach_journal(newcomer)
        # The tracked list object just grew in place; the newcomer's
        # whole schema starts dirty (an all-zero replica lags every
        # non-empty truth value).
        self.ground_truth.note_node_added()
        # Theorem 5 coverage restarts: the premise must be re-satisfied
        # over the enlarged replica set.
        self.coverage = TransitiveCoverageTracker(new_n)
        return new_id

    # -- round execution ---------------------------------------------------------

    def run_round(self) -> RoundStats:
        """One round: failure events, due retries, then one session per
        live node.

        Sessions run in a random order each round (not ascending node
        id): real anti-entropy sessions are concurrent, and a fixed
        order would let one round cascade an update across the whole
        cluster, flattering every schedule's convergence numbers.
        """
        self.round_no += 1
        fired = self.failure_plan.apply_round(self.round_no, self.network)
        if self.durable:
            self._recover_durable_nodes(fired)
        stats = RoundStats(self.round_no)
        msgs_before = self.network_counters.messages_sent
        bytes_before = self.network_counters.bytes_sent
        self._run_due_retries(stats)
        order = list(range(self.n_nodes))
        self.rng.shuffle(order)
        for node_id in order:
            if not self.network.is_up(node_id):
                continue
            peer = self.selector.peer_for(node_id, self.n_nodes, self.round_no, self.rng)
            self._run_session(node_id, peer, stats)
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
            full = self.ground_truth.recompute_stale_pairs(self.nodes)
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
            if (
                self.retry_policy.alternate_peer
                and not self.network.can_reach(retry.node_id, peer)
            ):
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
        self.round_no += 1
        fired = self.failure_plan.apply_round(self.round_no, self.network)
        if self.durable:
            self._recover_durable_nodes(fired)
        stats = RoundStats(self.round_no)
        msgs_before = self.network_counters.messages_sent
        bytes_before = self.network_counters.bytes_sent
        # Full-mesh rounds owe aborted sessions the same backoff-and-
        # retry service as random rounds; skipping it would leak every
        # pending retry scheduled from a faulted full-mesh session.
        self._run_due_retries(stats)
        for node_id in range(self.n_nodes):
            if not self.network.is_up(node_id):
                continue
            for peer in range(self.n_nodes):
                if peer == node_id:
                    continue
                self._run_session(node_id, peer, stats)
        stats.messages = self.network_counters.messages_sent - msgs_before
        stats.bytes_sent = self.network_counters.bytes_sent - bytes_before
        stats.stale_pairs = self._sample_stale_pairs()
        self.history.append(stats)
        return stats

    def _run_session(
        self, node_id: int, peer: int, stats: RoundStats, attempt: int = 1
    ) -> SyncStats:
        stats.sessions += 1
        # Quiescent-pair fast path (paper's O(1) identical-DBVV check
        # lifted into the round loop): a still-valid stamp proves the
        # session would be an identical two-message exchange, so its
        # accounting is replayed instead of dispatching it.  The body is
        # inlined — this branch is the per-session cost of a quiescent
        # round, and every call boundary shows up at n=128.  It must
        # stay semantically identical to ``_valid_stamp`` (the
        # sanitizer-mode twin that cross-checks would-be skips) followed
        # by the exact effects of one real identical session.  An
        # unchanged ``fabric_epoch`` subsumes the reachability probe:
        # every crash/recovery/partition event bumps it.
        if self.quiescent_fastpath and not self.sanitize:
            network = self.network
            hit = False
            request_bytes = reply_bytes = modelled_bytes = 0
            session = None
            if (
                network.loss_rate == 0.0
                # armed_fault_count(), without the call (hot path)
                and not network._armed_crashes
                and not network._armed_drops
            ):
                stamp = self._quiescent.get((node_id, peer))
                gens = self._node_gen
                if (
                    stamp is not None
                    and stamp.confirmed
                    and stamp.gen_initiator == gens[node_id]
                    and stamp.gen_responder == gens[peer]
                    and stamp.epoch == network.fabric_epoch
                ):
                    hit = True
                    request_bytes = stamp.request_bytes
                    reply_bytes = stamp.reply_bytes
                    modelled_bytes = stamp.modelled_bytes
                    forward_link = stamp.forward_link
                    backward_link = stamp.backward_link
                    responder = stamp.responder_counters
                    n_components = stamp.n_components
                    session = stamp.session
                else:
                    uniform = self._uniform
                    if (
                        uniform is not None
                        and uniform.gen_total == self._gen_total
                        and uniform.epoch == network.fabric_epoch
                    ):
                        hit = True
                        request_bytes = uniform.request_bytes
                        reply_bytes = uniform.reply_bytes
                        links = network._links
                        forward_link = links.get((node_id, peer))
                        if forward_link is None:
                            forward_link = links[(node_id, peer)] = LinkStats()
                        backward_link = links.get((peer, node_id))
                        if backward_link is None:
                            backward_link = links[(peer, node_id)] = LinkStats()
                        responder = self.node_counters[peer]
                        n_components = self.nodes[peer].n_nodes
                        session = uniform.session
            if hit and session is not None:
                counters = self.network_counters
                counters.messages_sent += 2
                counters.bytes_sent += request_bytes + reply_bytes
                counters.modelled_bytes_sent += modelled_bytes
                counters.fastpath_skips += 1
                census = network.frame_census
                census["PropagationRequest"] = (
                    census.get("PropagationRequest", 0) + 1
                )
                census["YouAreCurrent"] = census.get("YouAreCurrent", 0) + 1
                forward_link.messages += 1
                forward_link.bytes += request_bytes
                backward_link.messages += 1
                backward_link.bytes += reply_bytes
                network.latency_total += 2 * network.link_latency
                responder.vv_comparisons += 1
                responder.vv_components_touched += n_components
                if self.session_observer is not None:
                    self.session_observer(node_id, peer, session)
                # coverage.record_session, without the call or
                # the id re-validation (both ids are simulator-
                # owned and initiator != peer by the selector
                # contract); must mirror that method exactly.
                coverage = self.coverage
                when = float(self.round_no)
                coverage.history.append(
                    SessionRecord(when, node_id, peer)
                )
                knows = coverage._knows[node_id]
                if len(knows) < coverage.n_nodes:
                    knows |= coverage._knows[peer]
                    knows.add(peer)
                    if (
                        coverage._covered_at is None
                        and coverage.is_fully_covered()
                    ):
                        coverage._covered_at = when
                stats.identical_sessions += 1
                return session
        if not self.network.can_reach(node_id, peer):
            stats.failed_sessions += 1
            self._schedule_retry(node_id, peer, attempt)
            session = SyncStats(failed=True)
            if self.session_observer is not None:
                self.session_observer(node_id, peer, session)
            return session
        stamp = self._valid_stamp(node_id, peer) if self.quiescent_fastpath else None
        record = (
            self.quiescent_fastpath
            and stamp is None
            and self.network.loss_rate == 0.0
            and self.network.armed_fault_count() == 0
        )
        traffic_before = (0, 0, 0, 0, 0)
        epoch_before = 0
        if record:
            forward = self.network.link_stats(node_id, peer)
            backward = self.network.link_stats(peer, node_id)
            traffic_before = (
                forward.messages,
                forward.bytes,
                backward.messages,
                backward.bytes,
                self.network_counters.modelled_bytes_sent,
            )
            epoch_before = self.network.fabric_epoch
        try:
            session = self.nodes[node_id].sync_with(self.nodes[peer], self.network)
        except (NodeDownError, MessageLostError):
            # Protocols report faults through SyncStats; this safety net
            # covers ad-hoc ProtocolNode implementations that let the
            # transport's exceptions escape (phase unknown).
            session = SyncStats(failed=True)
        if not (
            session.identical
            and not session.failed
            and session.items_transferred == 0
            and session.conflicts == 0
        ):
            # Anything but a clean identical exchange may have changed
            # durable state at either endpoint (an aborted session can
            # have adopted items before the fault) — advance both
            # generation clocks so stamps involving them die.
            self._node_gen[node_id] += 1
            self._node_gen[peer] += 1
            self._gen_total += 1
        if stamp is not None:
            self._crosscheck_prediction(node_id, peer, stamp, session)
        elif record and session.identical and not session.failed:
            self._record_stamp(node_id, peer, traffic_before, epoch_before)
        if self.sanitize:
            sanitize_endpoints(
                self.nodes, (node_id, peer), self.network_counters
            )
        if self.session_observer is not None:
            self.session_observer(node_id, peer, session)
        if session.failed:
            stats.failed_sessions += 1
            self._note_abort(node_id, peer, session, stats)
            self._schedule_retry(node_id, peer, attempt)
            return session
        # Successful sessions (including you-are-current answers) build
        # Theorem 5's transitive coverage: data and knowledge flowed.
        self.coverage.record_session(node_id, peer, time=float(self.round_no))
        if session.identical:
            stats.identical_sessions += 1
        stats.items_transferred += session.items_transferred
        stats.conflicts += session.conflicts
        if session.adopted_items:
            self.ground_truth.note_adoptions(session.adopted_items)
        elif session.items_transferred > 0:
            # An ad-hoc protocol moved data without naming the items:
            # conservatively re-examine both endpoints wholesale.
            self.ground_truth.note_node_refresh(node_id)
            self.ground_truth.note_node_refresh(peer)
        return session

    # -- quiescent-pair fast path -------------------------------------------------

    def _valid_stamp(
        self, node_id: int, peer: int
    ) -> _QuiescentStamp | _UniformStamp | None:
        """The stamp covering the pair, if one still proves an
        identical exchange — the ordered pair's own stamp, or the
        cluster-wide uniform stamp as fallback.

        Validity needs a transparent fabric (no loss that would consume
        RNG or drop frames, no armed scripted faults, no control event —
        crash, recovery, partition change, membership growth, in-flight
        drop — since the stamp, all subsumed by ``fabric_epoch``) and
        the relevant generation clocks unchanged since the stamp was
        recorded: the pair's two clocks for a pair stamp, the
        cluster-wide total for the uniform stamp.  The driver bumps a
        clock on every event that can change a node's durable state, so
        matching clocks mean nothing happened and the recorded exchange
        (outcome *and* frame sizes) replays exactly.

        This is the sanitizer-mode twin of the inlined fast-path branch
        in ``_run_session``; the two predicates must stay identical or
        the cross-check verifies a different claim than the skip makes.
        """
        network = self.network
        if network.loss_rate != 0.0 or network.armed_fault_count() != 0:
            return None
        stamp = self._quiescent.get((node_id, peer))
        gens = self._node_gen
        if (
            stamp is not None
            and stamp.confirmed
            and stamp.gen_initiator == gens[node_id]
            and stamp.gen_responder == gens[peer]
            and stamp.epoch == network.fabric_epoch
        ):
            return stamp
        uniform = self._uniform
        if (
            uniform is not None
            and uniform.gen_total == self._gen_total
            and uniform.epoch == network.fabric_epoch
        ):
            return uniform
        return None

    def _record_stamp(
        self,
        node_id: int,
        peer: int,
        traffic_before: tuple[int, int, int, int, int],
        epoch_before: int,
    ) -> None:
        """Stamp the pair after a real identical session, capturing the
        observed per-direction traffic for later replay.  Anything that
        deviates from the canonical two-message shape (a protocol with a
        different identical exchange, a fault that slipped through)
        records nothing — the fast path only ever replays what it has
        byte-exactly seen."""
        network = self.network
        if network.fabric_epoch != epoch_before:
            return
        forward = network.link_stats(node_id, peer)
        backward = network.link_stats(peer, node_id)
        if (
            forward.messages - traffic_before[0] != 1
            or backward.messages - traffic_before[2] != 1
        ):
            return
        version_a = self.nodes[node_id].state_version()
        if version_a is None or version_a.certificate is None:
            return
        version_b = self.nodes[peer].state_version()
        if version_b is None or version_b.certificate is None:
            return
        request_bytes = forward.bytes - traffic_before[1]
        reply_bytes = backward.bytes - traffic_before[3]
        # In modelled mode ``wire_size()`` is a pure function of the
        # message, so the observed byte counts replay exactly from the
        # first sighting.  Encoded mode must wait for a second identical
        # exchange with the same counts: only then have the codec's
        # per-link delta caches reached steady state and made the
        # exchange byte-for-byte repeatable.
        if self.network.wire:
            candidate = self._quiescent.get((node_id, peer))
            confirmed = (
                candidate is not None
                and candidate.version_initiator == version_a
                and candidate.version_responder == version_b
                and candidate.request_bytes == request_bytes
                and candidate.reply_bytes == reply_bytes
                and candidate.epoch == epoch_before
            )
        else:
            confirmed = True
        self._quiescent[(node_id, peer)] = _QuiescentStamp(
            version_initiator=version_a,
            version_responder=version_b,
            gen_initiator=self._node_gen[node_id],
            gen_responder=self._node_gen[peer],
            request_bytes=request_bytes,
            reply_bytes=reply_bytes,
            modelled_bytes=(
                self.network_counters.modelled_bytes_sent - traffic_before[4]
            ),
            epoch=epoch_before,
            forward_link=forward,
            backward_link=backward,
            responder_counters=self.node_counters[peer],
            n_components=self.nodes[peer].n_nodes,
            session=SyncStats(
                identical=True,
                messages=2,
                bytes_sent=request_bytes + reply_bytes,
            ),
            confirmed=confirmed,
        )
        # Modelled mode only: a protocol whose identical exchange is
        # direction-symmetric lets one observation stamp *both*
        # directions — ``wire_size()`` is a pure function of the
        # message, the request size depends only on the (equal) DBVV
        # values, and the reply is constant-size, so the mirror
        # session's byte counts are these byte counts.  This halves
        # warm-up under random pairing, where the reverse direction
        # might not be drawn for many rounds.  The versions must be
        # truly *equal*: YouAreCurrent only proves the initiator
        # dominates-or-equals the responder, and a strictly-ahead
        # initiator would ship data in the reverse direction.  Encoded
        # mode cannot mirror: frame sizes depend on the per-directed-
        # link delta caches, which are in a different state on the
        # reverse links.
        if (
            confirmed
            and version_a == version_b
            and not self.network.wire
            and self.nodes[node_id].symmetric_identical_exchange
            and self.nodes[peer].symmetric_identical_exchange
        ):
            self._quiescent[(peer, node_id)] = _QuiescentStamp(
                version_initiator=version_b,
                version_responder=version_a,
                gen_initiator=self._node_gen[peer],
                gen_responder=self._node_gen[node_id],
                request_bytes=request_bytes,
                reply_bytes=reply_bytes,
                modelled_bytes=0,
                epoch=epoch_before,
                forward_link=backward,
                backward_link=forward,
                responder_counters=self.node_counters[node_id],
                n_components=self.nodes[node_id].n_nodes,
                session=SyncStats(
                    identical=True,
                    messages=2,
                    bytes_sent=request_bytes + reply_bytes,
                ),
                confirmed=True,
            )
            self._maybe_record_uniform(version_a, request_bytes, reply_bytes)

    def _maybe_record_uniform(
        self, version: StateVersion, request_bytes: int, reply_bytes: int
    ) -> None:
        """Try to promote one observed identical exchange into a
        cluster-wide uniform stamp.

        Called only from the modelled-mode symmetric-protocol branch of
        ``_record_stamp``.  The sweep is O(n) memoized ``state_version``
        reads, so it is attempted at most once per round and only while
        no current uniform stamp exists; once recorded, every pair
        skips and recording stops entirely.  Requirements, each tied to
        a live validity clock: every node up in a single partition
        group (any later change bumps ``fabric_epoch``), every node
        declaring a symmetric identical exchange, and every node
        holding the same *certified* state version (any later durable
        change bumps ``_gen_total``).
        """
        if self._uniform_attempt_round == self.round_no:
            return
        self._uniform_attempt_round = self.round_no
        network = self.network
        uniform = self._uniform
        if (
            uniform is not None
            and uniform.gen_total == self._gen_total
            and uniform.epoch == network.fabric_epoch
        ):
            return
        if not all(network._up) or len(set(network._group_of)) != 1:
            return
        for node in self.nodes:
            if not node.symmetric_identical_exchange:
                return
            state = node.state_version()
            if state is None or state.certificate is None or state != version:
                return
        self._uniform = _UniformStamp(
            version=version,
            gen_total=self._gen_total,
            epoch=network.fabric_epoch,
            request_bytes=request_bytes,
            reply_bytes=reply_bytes,
            session=SyncStats(
                identical=True,
                messages=2,
                bytes_sent=request_bytes + reply_bytes,
            ),
        )

    def _crosscheck_prediction(
        self,
        node_id: int,
        peer: int,
        stamp: _QuiescentStamp | _UniformStamp,
        session: SyncStats,
    ) -> None:
        """Sanitizer mode: the real session just ran where the fast path
        would have replayed; the prediction must match it exactly."""
        self.network_counters.fastpath_crosschecks += 1
        predicted_bytes = stamp.request_bytes + stamp.reply_bytes
        if (
            session.failed
            or not session.identical
            or session.messages != 2
            or session.bytes_sent != predicted_bytes
        ):
            raise InvariantViolation(
                "quiescent fast path would have mispredicted session "
                f"{node_id}->{peer} at round {self.round_no}: predicted "
                f"identical 2-message exchange of {predicted_bytes} bytes, "
                f"observed identical={session.identical} "
                f"failed={session.failed} messages={session.messages} "
                f"bytes={session.bytes_sent}"
            )

    def _schedule_retry(self, node_id: int, peer: int, attempt: int) -> None:
        if attempt >= self.retry_policy.max_attempts:
            return
        self._pending_retries.append(
            _PendingRetry(
                node_id,
                peer,
                attempt + 1,
                self.round_no + self.retry_policy.backoff_for(attempt),
            )
        )

    def _note_abort(
        self, node_id: int, peer: int, session: SyncStats, stats: RoundStats
    ) -> None:
        """Account an aborted session and verify neither endpoint was
        left inconsistent by the interruption."""
        phase = session.aborted_phase
        if phase is not None and session.messages > 0:
            # The session moved at least one message before dying —
            # that traffic bought no state change.  (A dead peer caught
            # at connect time is a failed session, not an aborted one:
            # no message left, nothing was wasted.)
            self.network_counters.sessions_aborted += 1
            self.network_counters.bytes_wasted_in_aborted_sessions += (
                session.bytes_sent
            )
            stats.bytes_wasted += session.bytes_sent
            key = phase.counter_name()
            self.network_counters.bump(key)
            stats.aborted_by_phase[phase.value] = (
                stats.aborted_by_phase.get(phase.value, 0) + 1
            )
        # The sanitizer (when on) already swept both endpoints right
        # after the session; don't run the fault-path sweep twice.
        if self.check_invariants_on_fault and not self.sanitize:
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
            use_versions=self.incremental_tracking,
            crosscheck=bool(self.sanitize),
            counters=self.network_counters,
        )

    def _plan_pending(self) -> bool:
        """True while the failure plan still has unfired events — a
        scheduled recovery can reintroduce divergence, so convergence
        must not be declared before the plan has fully played out."""
        return self.failure_plan.pending_after(self.round_no)

    def run_until_converged(self, max_rounds: int = 1000, quiesce: bool = True) -> int:
        """Run rounds until live replicas converge; returns the count.

        ``quiesce`` asserts the workload has stopped (criterion C3 is
        about convergence after update activity stops); a non-converged
        state after ``max_rounds`` raises, because silent non-convergence
        is exactly the failure mode the experiments must catch.
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

    def history_table(self, title: str = "Simulation rounds") -> Table:
        """The per-round stats as a printable/CSV-able report table."""
        # The one upward import: repro.metrics sits above this package.
        from repro.metrics.reporting import Table

        table = Table(
            title,
            ["round", "sessions", "identical", "failed", "retried",
             "items moved", "conflicts", "msgs", "bytes", "wasted bytes",
             "stale pairs"],
        )
        for stats in self.history:
            table.add_row([
                stats.round_no,
                stats.sessions,
                stats.identical_sessions,
                stats.failed_sessions,
                stats.retried_sessions,
                stats.items_transferred,
                stats.conflicts,
                stats.messages,
                stats.bytes_sent,
                stats.bytes_wasted,
                stats.stale_pairs if stats.stale_pairs is not None else "-",
            ])
        return table

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
