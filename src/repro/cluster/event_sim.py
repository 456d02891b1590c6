"""Event-driven (asynchronous) cluster simulation.

The round-based :class:`~repro.cluster.simulation.ClusterSimulation`
synchronizes all nodes to a global drumbeat.  Real epidemic deployments
do not: "update propagation can be done at a convenient time (i.e.,
during the next dial-up session)" (paper section 1) — each node syncs
on its own schedule, updates arrive whenever users make them, crashes
happen at arbitrary instants.  This driver is a second clock over a
composed :class:`~repro.cluster.simulation.ClusterSimulation`: it runs
that cluster's ``session_step`` on the
:class:`~repro.cluster.events.EventLoop` with per-node anti-entropy
periods (plus deterministic jitter), timed workload events, and timed
failures.

Determinism: everything is derived from the cluster's one seeded RNG
and the event loop's stable FIFO tie-breaking, so a run is a pure
function of its configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cluster.events import EventLoop
from repro.cluster.scheduler import PeerSelector, RandomSelector
from repro.cluster.simulation import ClusterSimulation
from repro.errors import ConvergenceError, UnknownItemError
from repro.interfaces import ProtocolNode
from repro.obs import OverheadCounters
from repro.substrate.operations import UpdateOperation

__all__ = ["NodeSchedule", "EventDrivenSimulation"]


@dataclass(frozen=True)
class NodeSchedule:
    """One node's anti-entropy cadence.

    ``period``  — mean time between this node's pulls.
    ``jitter``  — uniform fraction of the period added/subtracted per
                  session (0.2 → each gap is period × U[0.8, 1.2]);
                  jitter keeps nodes from synchronizing artificially.
    """

    period: float = 10.0
    jitter: float = 0.2

    def next_gap(self, rng: random.Random) -> float:
        if self.jitter <= 0:
            return self.period
        low = 1.0 - self.jitter
        high = 1.0 + self.jitter
        return self.period * (low + (high - low) * rng.random())


@dataclass
class EventDrivenSimulation:
    """Asynchronous epidemic simulation on the discrete-event engine.

    Parameters mirror :class:`~repro.cluster.simulation.ClusterSimulation`
    plus per-node schedules.  Workload and failures are injected as
    timed events via :meth:`schedule_update`, :meth:`schedule_crash`,
    and :meth:`schedule_recovery`; then :meth:`run_until` advances
    simulated time.  The composed :attr:`cluster` never runs a round.
    """

    factory: Callable[[int, OverheadCounters], ProtocolNode]
    n_nodes: int
    items: Sequence[str]
    selector: PeerSelector = field(default_factory=RandomSelector)
    schedules: Sequence[NodeSchedule] | None = None
    sanitize: bool | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        cluster = self.cluster = ClusterSimulation(
            self.factory,
            self.n_nodes,
            self.items,
            selector=self.selector,
            sanitize=self.sanitize,
            seed=self.seed,
        )
        # The composed cluster's parts, under the names this driver
        # exposes (E9 and the examples read them directly).
        self.sanitize = cluster.sanitize
        self.rng = cluster.rng
        self.network = cluster.network
        self.network_counters = cluster.network_counters
        self.node_counters = cluster.node_counters
        self.nodes = cluster.nodes
        self.ground_truth = cluster.ground_truth
        self.coverage = cluster.coverage
        self.loop = EventLoop()
        if self.schedules is None:
            self.schedules = [NodeSchedule() for _ in range(self.n_nodes)]
        if len(self.schedules) != self.n_nodes:
            raise ValueError(
                f"{len(self.schedules)} schedules for {self.n_nodes} nodes"
            )
        self.sessions_run = 0
        self.sessions_failed = 0
        for node_id in range(self.n_nodes):
            self._arm_next_session(node_id)

    @property
    def total_counters(self) -> OverheadCounters:
        """The composed cluster's :attr:`ClusterSimulation.total_counters`."""
        return self.cluster.total_counters

    def converged(self) -> bool:
        """Live replicas are identical (:meth:`ClusterSimulation.converged`)."""
        return self.cluster.converged()

    # -- scheduling ------------------------------------------------------------

    def _arm_next_session(self, node_id: int) -> None:
        gap = self.schedules[node_id].next_gap(self.rng)
        self.loop.schedule_after(
            gap, lambda: self._sync_slot(node_id), label=f"sync@{node_id}"
        )

    def _sync_slot(self, node_id: int) -> None:
        # A crashed node skips its slot but keeps its schedule armed, so
        # it resumes syncing after recovery.
        if self.network.is_up(node_id):
            self.sessions_run += 1
            peer = self.selector.peer_for(
                node_id, self.n_nodes, self.sessions_run, self.rng
            )
            if self.cluster.session_step(node_id, peer, self.now).failed:
                self.sessions_failed += 1
        self._arm_next_session(node_id)

    def schedule_update(
        self, at: float, node_id: int, item: str, op: UpdateOperation
    ) -> None:
        """Inject a user update at absolute simulated time ``at``.

        An update scheduled onto a node that is down when the event
        fires is rejected exactly like the round-based driver rejects
        it — the user of a crashed server gets an error; here the event
        is simply dropped and counted.  Unknown items are rejected at
        scheduling time (failing inside the event loop would abort the
        whole run far from the mistake).
        """
        if item not in self.ground_truth.items:
            raise UnknownItemError(item)

        def apply() -> None:
            if not self.network.is_up(node_id):
                self.updates_rejected += 1
                return
            self.cluster.apply_update(node_id, item, op)

        self.loop.schedule_at(at, apply, label=f"update@{node_id}:{item}")

    updates_rejected: int = field(default=0, init=False)

    _pending_failure_events: int = field(default=0, init=False)

    def schedule_crash(self, at: float, node_id: int) -> None:
        """Crash ``node_id`` at simulated time ``at``."""

        def crash() -> None:
            self.network.set_down(node_id)
            self._pending_failure_events -= 1

        self._pending_failure_events += 1
        self.loop.schedule_at(at, crash, label=f"crash@{node_id}")

    def schedule_recovery(self, at: float, node_id: int) -> None:
        """Recover ``node_id`` at simulated time ``at``; in durable mode
        the node is rebuilt from its journal, as a round-based
        :class:`~repro.cluster.failures.Recover` event does."""

        def recover() -> None:
            self.network.set_up(node_id)
            self.cluster.rebuild_from_journal(node_id)
            self._pending_failure_events -= 1

        self._pending_failure_events += 1
        self.loop.schedule_at(at, recover, label=f"recover@{node_id}")

    # -- execution ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.loop.clock.now()

    def run_until(self, time: float) -> int:
        """Advance simulated time; returns the number of events fired."""
        return self.loop.run_until(time)

    def run_until_converged(
        self, check_interval: float = 5.0, deadline: float = 10_000.0
    ) -> float:
        """Advance time until live replicas converge; returns the
        simulated time of the first passing check.  Convergence is not
        declared while crash/recovery events are still pending — a
        scheduled recovery can reintroduce divergence.  Raises when the
        deadline passes without convergence."""
        while self.now < deadline:
            self.run_until(self.now + check_interval)
            if self._pending_failure_events == 0 and self.converged():
                return self.now
        raise ConvergenceError(
            f"no convergence by simulated time {deadline} "
            f"({self.sessions_run} sessions run)"
        )
