"""The bounded exhaustive search engine.

Depth-first search over the transition graph induced by
:meth:`~repro.explore.world.ProtocolWorld.enabled_actions`, with two
reductions:

**Revisited-state pruning.**  States are hashed by
:meth:`~repro.explore.world.ProtocolWorld.state_key` (full protocol
fingerprints plus budgets).  A cache hit only prunes when the cached
visit *covers* the current one — it had at least as much remaining
depth AND its sleep set was a subset of the current one (a larger sleep
set explores fewer successors, so a small-sleep-set visit proves more).
Dominated cache entries are discarded as stronger ones arrive.

**Sleep sets** (partial-order reduction).  After exploring action ``a``
from a state, ``a`` joins the sleep set for the state's remaining
branches; a child reached via ``b`` inherits every sleeping action
independent of ``b`` (:func:`~repro.explore.actions.independent` —
disjoint node footprints, with budget coupling).  A sleeping action's
subtree is provably a permutation of schedules already explored, so it
is skipped and counted in ``pruned_sleep``.

The oracle runs at every transition: structural invariants on the new
state, vector monotonicity across the step, then the memoized
quiescent-closure convergence check.  The first violation aborts the
search and is reported with the exact schedule that reached it (feed it
to :func:`~repro.explore.minimize.minimize_schedule`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReplicationError
from repro.explore.actions import Action, InapplicableActionError, independent
from repro.explore.oracle import InvariantOracle, OracleViolation
from repro.explore.world import (
    DifferentialWorld,
    ExplorationConfig,
    ProtocolWorld,
    build_world,
)

__all__ = ["ExplorationResult", "ExplorationStats", "Explorer", "step"]

AnyWorld = ProtocolWorld | DifferentialWorld


@dataclass
class ExplorationStats:
    """Counters the search reports (and CI asserts on)."""

    states_explored: int = 0
    transitions: int = 0
    pruned_sleep: int = 0
    pruned_visited: int = 0
    max_depth: int = 0
    closure_runs: int = 0
    closure_memo_hits: int = 0

    def branches_considered(self) -> int:
        """Every branch the search looked at: taken, sleep-pruned, or
        leading to an already-covered state."""
        return self.transitions + self.pruned_sleep + self.pruned_visited

    def pruned_share(self) -> float:
        """Fraction of considered branches pruned (sleep sets + state
        cache together); each pruned branch cuts an entire subtree of
        interleavings."""
        considered = self.branches_considered()
        if considered == 0:
            return 0.0
        return (self.pruned_sleep + self.pruned_visited) / considered

    def sleep_share(self) -> float:
        """Fraction of considered branches pruned by sleep sets alone."""
        considered = self.branches_considered()
        if considered == 0:
            return 0.0
        return self.pruned_sleep / considered


@dataclass
class ExplorationResult:
    """Outcome of one bounded exploration."""

    config: ExplorationConfig
    depth: int
    violation: OracleViolation | None = None
    schedule: tuple[Action, ...] = ()
    stats: ExplorationStats = field(default_factory=ExplorationStats)

    @property
    def ok(self) -> bool:
        return self.violation is None


class _ViolationFound(Exception):
    def __init__(self, schedule: list[Action], violation: OracleViolation):
        super().__init__(violation.describe())
        self.schedule = schedule
        self.violation = violation


def step(
    world: AnyWorld, action: Action, oracle: InvariantOracle
) -> tuple[AnyWorld, OracleViolation | None]:
    """Apply ``action`` to a clone of ``world`` and run the oracle.

    Shared by the search, the minimizer, and trace replay so all three
    judge a schedule by exactly the same rules.
    """
    child = world.clone()
    before = oracle.vector_snapshot(child)
    action_text = action.describe()
    try:
        child.apply(action)
    except InapplicableActionError:
        # Not a finding: the schedule asked for a disabled action (an
        # edited/stale trace).  Callers decide how to surface it.
        raise
    except (ReplicationError, ValueError) as exc:
        return child, OracleViolation(
            "action-crash",
            f"{action_text} raised {type(exc).__name__}: {exc}",
        )
    violation = (
        oracle.check_state(child)
        or oracle.check_transition(before, child, action_text)
        or oracle.check_quiescence(child)
    )
    return child, violation


class Explorer:
    """Bounded exhaustive exploration of one configuration: every
    schedule of at most ``depth`` actions, judged by the oracle at every
    transition, with both reductions of the module docstring on."""

    def __init__(self, config: ExplorationConfig, depth: int):
        if depth < 1:
            raise ValueError(f"exploration depth must be >= 1, got {depth}")
        self.config = config
        self.depth = depth
        self.oracle = InvariantOracle()
        self.stats = ExplorationStats()
        # state digest -> non-dominated (remaining_depth, sleep_set) visits
        self._visited: dict[bytes, list[tuple[int, frozenset[Action]]]] = {}

    def run(self) -> ExplorationResult:
        root = build_world(self.config)
        result = ExplorationResult(self.config, self.depth, stats=self.stats)
        result.violation = (
            self.oracle.check_state(root) or self.oracle.check_quiescence(root)
        )
        if result.violation is None:
            try:
                self._dfs(root, self.depth, frozenset(), [])
            except _ViolationFound as found:
                result.violation = found.violation
                result.schedule = tuple(found.schedule)
        self.stats.closure_runs = self.oracle.closure_runs
        self.stats.closure_memo_hits = self.oracle.closure_memo_hits
        return result

    def _dfs(
        self,
        world: AnyWorld,
        depth_left: int,
        sleep: frozenset[Action],
        schedule: list[Action],
    ) -> None:
        if self._covered(world.state_key(), depth_left, sleep):
            self.stats.pruned_visited += 1
            return
        self.stats.states_explored += 1
        self.stats.max_depth = max(self.stats.max_depth, self.depth - depth_left)
        if depth_left == 0:
            return
        budgets = world.budgets_left()
        sleeping = set(sleep)
        for action in world.enabled_actions():
            if action in sleeping:
                self.stats.pruned_sleep += 1
                continue
            self.stats.transitions += 1
            child, violation = step(world, action, self.oracle)
            schedule.append(action)
            if violation is not None:
                raise _ViolationFound(list(schedule), violation)
            child_sleep = frozenset(
                slept for slept in sleeping if independent(action, slept, budgets)
            )
            self._dfs(child, depth_left - 1, child_sleep, schedule)
            schedule.pop()
            sleeping.add(action)

    def _covered(
        self, key: bytes, depth_left: int, sleep: frozenset[Action]
    ) -> bool:
        """True when a prior visit of this state explored at least as
        deep with at most this sleep set; otherwise records this visit
        (dropping entries it dominates)."""
        entries = self._visited.get(key)
        if entries is not None:
            for cached_depth, cached_sleep in entries:
                if cached_depth >= depth_left and cached_sleep <= sleep:
                    return True
            entries[:] = [
                (cached_depth, cached_sleep)
                for cached_depth, cached_sleep in entries
                if not (depth_left >= cached_depth and sleep <= cached_sleep)
            ]
            entries.append((depth_left, sleep))
        else:
            self._visited[key] = [(depth_left, sleep)]
        return False
