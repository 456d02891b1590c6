"""Tests for transitive-coverage tracking (paper section 7, Theorem 5).

The tracker is the ``tests/coverage.py`` oracle, fed through the
simulation's ``session_observer``."""

import pytest

from repro.cluster.scheduler import RingSelector
from repro.cluster.simulation import ClusterSimulation
from repro.errors import UnknownNodeError
from repro.experiments.common import make_factory, make_items
from repro.substrate.operations import Put
from tests.coverage import TransitiveCoverageTracker, observe_coverage


class TestDefinition4:
    """The tracker follows the paper's definition of transitive
    propagation exactly."""

    def test_direct_propagation(self):
        tracker = TransitiveCoverageTracker(3)
        tracker.record_session(recipient=0, source=1)
        assert tracker.has_propagated_from(0, 1)
        assert not tracker.has_propagated_from(1, 0)

    def test_transitivity_through_intermediate(self):
        """i pulls from k after k pulled from j ⇒ i transitively
        propagated from j."""
        tracker = TransitiveCoverageTracker(3)
        tracker.record_session(recipient=1, source=2)  # k <- j
        tracker.record_session(recipient=0, source=1)  # i <- k
        assert tracker.has_propagated_from(0, 2)

    def test_order_matters(self):
        """i pulls from k BEFORE k pulls from j ⇒ no transitivity."""
        tracker = TransitiveCoverageTracker(3)
        tracker.record_session(recipient=0, source=1)  # i <- k first
        tracker.record_session(recipient=1, source=2)  # k <- j later
        assert not tracker.has_propagated_from(0, 2)

    def test_nodes_trivially_know_themselves(self):
        tracker = TransitiveCoverageTracker(2)
        assert tracker.has_propagated_from(0, 0)

    def test_self_session_rejected(self):
        tracker = TransitiveCoverageTracker(2)
        with pytest.raises(ValueError):
            tracker.record_session(0, 0)

    def test_unknown_nodes_rejected(self):
        tracker = TransitiveCoverageTracker(2)
        with pytest.raises(UnknownNodeError):
            tracker.record_session(0, 5)


class TestFullCoverage:
    def test_ring_covers_in_two_laps(self):
        """One directed ring lap gives everyone their predecessor
        chain; a second lap closes every pair."""
        tracker = TransitiveCoverageTracker(4)
        for _lap in range(2):
            for node in range(4):
                tracker.record_session(node, (node - 1) % 4)
        assert tracker.is_fully_covered()
        assert tracker.uncovered_pairs() == []

    def test_one_lap_is_not_enough(self):
        tracker = TransitiveCoverageTracker(4)
        for node in range(4):
            tracker.record_session(node, (node - 1) % 4)
        assert not tracker.is_fully_covered()
        # Node 0 pulled first and knows only its predecessor.
        assert tracker.knowledge_of(0) == frozenset({0, 3})

    def test_coverage_time_recorded_once(self):
        tracker = TransitiveCoverageTracker(2)
        tracker.record_session(0, 1, time=1.0)
        tracker.record_session(1, 0, time=2.0)
        assert tracker.coverage_time == 2.0
        tracker.record_session(0, 1, time=9.0)
        assert tracker.coverage_time == 2.0

    def test_reset_epoch_restarts_coverage(self):
        tracker = TransitiveCoverageTracker(2)
        tracker.record_session(0, 1, time=1.0)
        tracker.record_session(1, 0, time=2.0)
        tracker.reset_epoch()
        assert not tracker.is_fully_covered()
        assert tracker.coverage_time is None
        assert len(tracker.history) == 2  # history is kept


class TestTheorem5EndToEnd:
    """Coverage (the premise) implies convergence (the conclusion) in
    the full simulation — and convergence cannot precede coverage for
    updates present from the start."""

    def test_simulation_tracks_coverage(self):
        items = make_items(10)
        sim = ClusterSimulation(make_factory("dbvv", 4, items), 4, items, seed=1)
        coverage = observe_coverage(sim, lambda: sim.round_no)
        sim.run_round()
        assert len(coverage.history) == 4
        assert {record.time for record in coverage.history} == {1}

    def test_coverage_implies_convergence(self):
        items = make_items(30)
        sim = ClusterSimulation(make_factory("dbvv", 5, items), 5, items, seed=2)
        coverage = observe_coverage(sim, lambda: sim.round_no)
        for k in range(5):
            sim.apply_update(k, items[k], Put(f"v{k}".encode()))
        while not coverage.is_fully_covered():
            sim.run_round()
            assert sim.round_no < 200
        # Premise satisfied ⇒ conclusion must hold: replicas converged.
        assert sim.converged()
        assert sim.ground_truth.fully_current(sim.nodes)

    def test_convergence_of_initial_updates_never_precedes_coverage(self):
        """If some pair (i, j) is uncovered, i cannot have j's initial
        update — run many seeds and check the implication each round."""
        items = make_items(12)
        for seed in range(5):
            sim = ClusterSimulation(
                make_factory("dbvv", 4, items), 4, items, seed=seed
            )
            coverage = observe_coverage(sim, lambda sim=sim: sim.round_no)
            for k in range(4):
                sim.apply_update(k, items[k], Put(f"origin-{k}".encode()))
            for _ in range(50):
                sim.run_round()
                for i, j in coverage.uncovered_pairs():
                    assert sim.nodes[i].read(items[j]) == b"", (
                        f"node {i} has node {j}'s update without having "
                        f"transitively propagated from it (seed {seed})"
                    )
                if coverage.is_fully_covered():
                    break
            assert coverage.is_fully_covered()

    def test_ring_coverage_time_matches_theory(self):
        """A deterministic ring needs at most 2n sessions-per-node laps;
        the simulator's shuffled order makes it a few rounds more."""
        items = make_items(5)
        sim = ClusterSimulation(
            make_factory("dbvv", 6, items), 6, items,
            selector=RingSelector(), seed=3,
        )
        coverage = observe_coverage(sim, lambda: sim.round_no)
        while not coverage.is_fully_covered():
            sim.run_round()
            assert sim.round_no <= 4 * 6
