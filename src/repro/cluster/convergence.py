"""Convergence checking and ground-truth staleness tracking.

Two protocol-agnostic instruments:

* :func:`fingerprints_equal` compares replicas — the test-suite's
  definition of "converged" (correctness criterion C3: when update
  activity stops, all replicas catch up).  Every node exposes its
  :class:`~repro.interfaces.ContentDigest` token, so the comparison is
  O(n) over n integers instead of O(n·N) over materialized snapshot
  dicts; sanitizer mode (``crosscheck=True``) also compares the full
  snapshots and insists the two answers agree.

* :class:`GroundTruth` maintains the would-be state of a hypothetical
  replica that saw every user update instantly, in global order.  A
  (node, item) pair is *stale* when the node's value differs from the
  ground truth; staleness-over-time is how experiment E5 quantifies the
  failure-vulnerability of push-without-forwarding (paper section 8.2).
  Ground truth is only meaningful for conflict-free histories (with
  concurrent conflicting updates there is no single truth — which is
  the point of conflict detection).

  By default every query recomputes from full fingerprints.  A driver
  that routes all updates through :meth:`apply` and reports session
  adoptions through :meth:`note_adoptions` can call :meth:`track` to
  switch the tracked node list to *incremental* accounting: queries
  then re-examine only the (node, item) pairs in the dirty frontier
  (items updated or adopted since the last query), making per-query
  cost proportional to what changed.  The from-scratch path is kept as
  :meth:`recompute_staleness` for untracked callers (queries over
  node subsets fall back to it automatically) and for the sanitizer
  cross-check.

  The dirty-frontier invariant: between queries, every (node, item)
  pair whose staleness status may have changed is in the node's dirty
  set.  :meth:`apply` dirties the item for *all* tracked nodes (the
  truth moved under everyone, including the updater — a non-Put update
  applied to a stale base can itself diverge from the truth),
  :meth:`note_adoptions` dirties reported pairs (every protocol names
  each pair a session changed), and :meth:`note_node_refresh`
  re-examines a node wholesale after a durable node was rebuilt from
  its journal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import InvariantViolation
from repro.interfaces import ContentDigest, ProtocolNode
from repro.obs import NULL_COUNTERS, OverheadCounters
from repro.substrate.operations import UpdateOperation

__all__ = [
    "fingerprints_equal",
    "GroundTruth",
    "StalenessSample",
]


def fingerprints_equal(
    nodes: Sequence[ProtocolNode],
    *,
    crosscheck: bool = False,
    counters: OverheadCounters = NULL_COUNTERS,
) -> bool:
    """True when every replica's durable state is identical, compared
    as n ``state_digest()`` integers instead of n materialized
    ``state_fingerprint()`` dicts.

    ``crosscheck`` is the sanitizer mode: also compare the full
    snapshots — the reference — and raise
    :class:`~repro.errors.InvariantViolation` on disagreement (each
    verification is counted in ``counters.tracking_crosschecks``).
    """
    if len(nodes) < 2:
        return True
    first = nodes[0].state_digest()
    fast = all(node.state_digest() == first for node in nodes[1:])
    if crosscheck:
        counters.tracking_crosschecks += 1
        reference = nodes[0].state_fingerprint()
        full = all(node.state_fingerprint() == reference for node in nodes[1:])
        if full != fast:
            raise InvariantViolation(
                "state_digest comparison disagrees with full "
                f"fingerprints: digests say converged={fast}, "
                f"snapshots say converged={full} "
                f"(protocol={nodes[0].protocol_name!r}, n={len(nodes)})"
            )
    return fast


@dataclass(frozen=True)
class StalenessSample:
    """Staleness measured at one observation point."""

    time: float
    stale_pairs: int
    stale_nodes: int


@dataclass
class GroundTruth:
    """The state of an imaginary replica that sees every update at once.

    Feed it every user update (in the global order the simulation issues
    them) via :meth:`apply`; sample cluster staleness with
    :meth:`observe`.  See the module docstring for the optional
    incremental tracking mode (:meth:`track`).
    """

    items: tuple[str, ...]
    _values: dict[str, bytes] = field(init=False)
    samples: list[StalenessSample] = field(default_factory=list)
    _tracked: list[ProtocolNode] | None = field(
        default=None, init=False, repr=False
    )
    _counters: OverheadCounters = field(
        default_factory=lambda: NULL_COUNTERS, init=False, repr=False
    )
    # Per tracked node: pairs awaiting re-examination, and the exact
    # set of currently stale items among the examined ones.
    _dirty: list[set[str]] = field(default_factory=list, init=False, repr=False)
    _stale: list[set[str]] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        self._values = {item: b"" for item in self.items}

    def apply(self, item: str, op: UpdateOperation) -> None:
        """Record a user update in global order."""
        self._values[item] = op.apply(self._values[item])
        if self._tracked is not None:
            # The truth moved under every replica; the updater itself is
            # included (a non-Put op applied to a stale local base can
            # leave even the updating node behind the truth).
            for dirty in self._dirty:
                dirty.add(item)

    def value(self, item: str) -> bytes:
        return self._values[item]

    # -- incremental tracking ----------------------------------------------------

    def track(
        self,
        nodes: list[ProtocolNode],
        counters: OverheadCounters = NULL_COUNTERS,
    ) -> None:
        """Switch queries over ``nodes`` (the exact list object) to
        incremental accounting.

        The caller contracts to report every subsequent mutation:
        updates via :meth:`apply`, session adoptions via
        :meth:`note_adoptions`, and rebuilt nodes via
        :meth:`note_node_refresh`.  A node whose ``state_digest()``
        equals the truth's holds the truth's values (up to the 64-bit
        collision caveat :func:`fingerprints_equal` already accepts), so
        it starts clean — a fresh cluster over a fresh truth costs the
        first query nothing; every other node starts wholly dirty and the
        first query examines it in full.  Later queries examine only the frontier.
        Queries passing any *other* list (subsets, ad-hoc node groups)
        keep using the from-scratch path.
        """
        self._tracked = nodes
        self._counters = counters
        truth = ContentDigest.recompute(self._values.items())
        self._dirty = [
            set() if node.state_digest() == truth else set(self.items)
            for node in nodes
        ]
        self._stale = [set() for _ in nodes]

    def tracking(self, nodes: Sequence[ProtocolNode]) -> bool:
        """True when ``nodes`` is the tracked list object."""
        return self._tracked is not None and nodes is self._tracked

    def note_adoptions(self, pairs: Iterable[tuple[int, str]]) -> None:
        """Mark session-reported ``(node_index, item)`` pairs dirty."""
        if self._tracked is None:
            return
        for node_index, item in pairs:
            self._dirty[node_index].add(item)

    def note_node_refresh(self, node_index: int) -> None:
        """Re-examine everything at one node (a durable node rebuilt
        from its journal is a new object with unreported changes)."""
        if self._tracked is None:
            return
        self._dirty[node_index].update(self.items)

    def _drain_dirty(self) -> None:
        """Re-examine every dirty pair, updating the exact stale sets."""
        nodes = self._tracked
        if nodes is None:
            return
        for node_index, dirty in enumerate(self._dirty):
            if not dirty:
                continue
            node = nodes[node_index]
            stale = self._stale[node_index]
            self._counters.staleness_reexaminations += len(dirty)
            for item in dirty:
                if node.fingerprint_value(item) != self._values[item]:
                    stale.add(item)
                else:
                    stale.discard(item)
            dirty.clear()

    # -- queries ------------------------------------------------------------------

    def stale_pairs(self, nodes: list[ProtocolNode]) -> int:
        """Count of (node, item) pairs whose value lags the ground truth."""
        if self.tracking(nodes):
            self._drain_dirty()
            return sum(len(stale) for stale in self._stale)
        return self.recompute_staleness(nodes)[0]

    def recompute_staleness(self, nodes: Sequence[ProtocolNode]) -> tuple[int, int]:
        """``(stale pairs, stale nodes)`` from scratch over full
        fingerprints — used by untracked callers (including subset
        queries) and as the sanitizer cross-check against the
        incremental count."""
        stale_pairs = stale_nodes = 0
        for node in nodes:
            snapshot = node.state_fingerprint()
            node_stale = sum(
                1
                for item, truth in self._values.items()
                if snapshot.get(item, b"") != truth
            )
            stale_pairs += node_stale
            stale_nodes += 1 if node_stale else 0
        return stale_pairs, stale_nodes

    def observe(self, time: float, nodes: list[ProtocolNode]) -> StalenessSample:
        """Sample staleness now and append it to ``samples``."""
        if self.tracking(nodes):
            self._drain_dirty()
            stale_pairs = sum(len(stale) for stale in self._stale)
            stale_nodes = sum(1 for stale in self._stale if stale)
        else:
            stale_pairs, stale_nodes = self.recompute_staleness(nodes)
        sample = StalenessSample(time, stale_pairs, stale_nodes)
        self.samples.append(sample)
        return sample

    def fully_current(self, nodes: list[ProtocolNode]) -> bool:
        """True when no replica lags the ground truth anywhere."""
        return self.stale_pairs(nodes) == 0
