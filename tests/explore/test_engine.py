"""Engine behavior: exhaustiveness and POR soundness, the latter
checked against a plain reference search with no reduction."""

import pytest

from repro.explore import ExplorationConfig, Explorer
from repro.explore.engine import step
from repro.explore.oracle import InvariantOracle
from repro.explore.world import build_world

SMALL = ExplorationConfig(
    protocol="dbvv",
    n_nodes=2,
    items=("x0",),
    max_updates=2,
    max_faults=1,
    max_crashes=1,
    max_oob=0,
)


def reference_search(config, depth):
    """Every state within ``depth`` actions of the initial world, by a
    breadth-first search with no sleep sets, each transition judged by
    the oracle through :func:`step`.  Returns ``(state keys, first
    violation or None)``."""
    oracle = InvariantOracle()
    root = build_world(config)
    seen = {root.state_key()}
    frontier = [root]
    for _ in range(depth):
        reached = []
        for world in frontier:
            for action in world.enabled_actions():
                child, violation = step(world, action, oracle)
                if violation is not None:
                    return seen, violation
                if child.state_key() not in seen:
                    seen.add(child.state_key())
                    reached.append(child)
        frontier = reached
    return seen, None


def raw_transitions(world, depth, cap):
    """Transitions of the raw schedule tree below ``world`` (no sleep
    sets, no state cache, no oracle); counting stops once past ``cap``."""
    if depth == 0:
        return 0
    count = 0
    for action in world.enabled_actions():
        child = world.clone()
        child.apply(action)
        count += 1 + raw_transitions(child, depth - 1, cap - count - 1)
        if count > cap:
            break
    return count


class TestExploration:
    def test_unmodified_protocol_is_clean(self):
        result = Explorer(SMALL, depth=3).run()
        assert result.ok, result.violation.describe()
        assert result.stats.states_explored > 1

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            Explorer(SMALL, depth=0)


class TestPartialOrderReduction:
    """Sleep sets prune *transitions*, never *states*: the reduced
    search and the reference search must visit exactly the same state
    set (the classic sleep-set soundness property), with fewer branches
    taken."""

    CONFIG = ExplorationConfig(
        protocol="dbvv",
        n_nodes=3,
        items=("x0",),
        max_updates=2,
        max_faults=0,
        max_crashes=0,
        max_oob=0,
        fault_variants=False,
    )

    def test_same_states_as_unreduced_search(self):
        reduced = Explorer(self.CONFIG, depth=3)
        result = reduced.run()
        states, violation = reference_search(self.CONFIG, depth=3)
        assert result.ok and violation is None
        assert set(reduced._visited) == states
        assert result.stats.pruned_sleep > 0

    def test_por_prunes_most_of_the_raw_interleaving_tree(self):
        # The honest baseline is the *raw* schedule tree (no sleep sets,
        # no state cache): a raw tree more than twice the reduced
        # transition count proves > 50% of interleavings pruned.
        reduced = Explorer(self.CONFIG, depth=3).run()
        assert reduced.ok
        bound = 2 * reduced.stats.transitions
        raw = raw_transitions(build_world(self.CONFIG), 3, bound)
        assert raw > bound, (
            f"raw tree finished within 2x the reduced search "
            f"({raw} vs {reduced.stats.transitions})"
        )

    def test_por_finds_the_same_verdict_with_faults(self):
        config = ExplorationConfig(
            protocol="dbvv",
            n_nodes=2,
            items=("x0",),
            max_updates=1,
            max_faults=1,
            max_crashes=1,
            max_oob=1,
        )
        assert Explorer(config, depth=3).run().ok
        assert reference_search(config, depth=3)[1] is None
