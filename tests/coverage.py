"""Transitive propagation coverage — Theorem 5's premise, checkable.

A test oracle: the simulators do not track coverage themselves; a test
attaches a tracker to a cluster's ``session_observer`` with
:func:`observe_coverage` and asserts both directions of Theorem 5 —
full coverage implies convergence, and no replica converges on an
origin's update before it has propagated from that origin.

Paper section 7: node ``i`` performs update propagation *transitively*
from ``j`` if it pulls from ``j`` directly, or pulls from some ``k``
after ``k`` transitively propagated from ``j``.  Theorem 5: if the
schedule eventually gives every node transitive propagation from every
other node, the correctness criteria C1–C3 hold.

:class:`TransitiveCoverageTracker` watches a session history and
answers, at any point, which ordered pairs ``(i, j)`` satisfy the
premise.  The update rule follows the definition exactly: when ``i``
pulls from ``j`` at some time, ``i``'s knowledge set becomes
``knows(i) ∪ knows(j) ∪ {j}`` — everything ``j`` had transitively
propagated *before this session* now reaches ``i`` through it.

The tracker also computes the *coverage time* — the first time every
pair is covered — which lower-bounds convergence time for any workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.simulation import ClusterSimulation
from repro.errors import UnknownNodeError
from repro.interfaces import SyncStats


@dataclass(frozen=True)
class SessionRecord:
    """One completed pull: ``recipient`` propagated from ``source``."""

    time: float
    recipient: int
    source: int


@dataclass
class TransitiveCoverageTracker:
    """Tracks which nodes have transitively propagated from which.

    ``knows[i]`` is the set of nodes ``j`` such that ``i`` has performed
    update propagation transitively from ``j`` (paper Definition 4).
    Every node trivially "knows" itself.
    """

    n_nodes: int
    history: list[SessionRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {self.n_nodes}")
        self._knows: list[set[int]] = [{k} for k in range(self.n_nodes)]
        self._covered_at: float | None = None

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise UnknownNodeError(node)

    # -- recording ---------------------------------------------------------

    def record_session(self, recipient: int, source: int, time: float = 0.0) -> None:
        """Record one successful propagation session.

        Failed sessions (peer down, message lost) must *not* be recorded
        — no data moved, so no transitive knowledge was transferred.
        """
        self._check(recipient)
        self._check(source)
        if recipient == source:
            raise ValueError("a node does not propagate from itself")
        self.history.append(SessionRecord(time, recipient, source))
        # Definition 4: everything the source had transitively
        # propagated from, the recipient now has too (plus the source).
        # A recipient that already knows every node can learn nothing
        # more — skip the O(n) set union (the common case for every
        # session after full coverage, e.g. quiescent rounds).
        knows = self._knows[recipient]
        if len(knows) < self.n_nodes:
            knows |= self._knows[source]
            knows.add(source)
            if self._covered_at is None and self.is_fully_covered():
                self._covered_at = time

    # -- queries ---------------------------------------------------------------

    def has_propagated_from(self, recipient: int, source: int) -> bool:
        """Definition 4: has ``recipient`` transitively propagated from
        ``source``?"""
        self._check(recipient)
        self._check(source)
        return source in self._knows[recipient]

    def knowledge_of(self, node: int) -> frozenset[int]:
        """All nodes ``node`` has transitively propagated from."""
        self._check(node)
        return frozenset(self._knows[node])

    def uncovered_pairs(self) -> list[tuple[int, int]]:
        """Ordered pairs (recipient, source) still missing coverage."""
        return [
            (i, j)
            for i in range(self.n_nodes)
            for j in range(self.n_nodes)
            if i != j and j not in self._knows[i]
        ]

    def is_fully_covered(self) -> bool:
        """Theorem 5's premise: every node has transitively propagated
        from every other node."""
        return all(
            len(knowledge) == self.n_nodes for knowledge in self._knows
        )

    @property
    def coverage_time(self) -> float | None:
        """Time of the session that completed full coverage, or None."""
        return self._covered_at

    def reset_epoch(self) -> None:
        """Forget all coverage (but keep the session history).

        Theorem 5 is about *eventual* repeated coverage: convergence of
        updates made after time t needs coverage built from sessions
        after t.  Experiments call this when they inject new updates and
        want the coverage clock restarted.
        """
        self._knows = [{k} for k in range(self.n_nodes)]
        self._covered_at = None


def observe_coverage(
    cluster: ClusterSimulation, clock: Callable[[], float]
) -> TransitiveCoverageTracker:
    """A tracker fed every successful session of ``cluster``, stamped
    with ``clock()`` — ``lambda: sim.round_no`` on the round clock,
    ``lambda: sim.now`` for an event-driven simulation's ``cluster``."""
    tracker = TransitiveCoverageTracker(cluster.n_nodes)

    def observe(initiator: int, peer: int, stats: SyncStats) -> None:
        if not stats.failed:
            tracker.record_session(initiator, peer, time=clock())

    cluster.session_observer = observe
    return tracker
