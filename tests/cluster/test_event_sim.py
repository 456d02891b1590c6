"""Tests for the event-driven (asynchronous) simulation."""

import pytest

from repro.cluster.event_sim import EventDrivenSimulation, NodeSchedule
from repro.experiments.common import make_factory, make_items
from repro.substrate.operations import Put

ITEMS = make_items(20)


def make_sim(n_nodes=4, seed=3, schedules=None):
    return EventDrivenSimulation(
        make_factory("dbvv", n_nodes, ITEMS),
        n_nodes,
        ITEMS,
        schedules=schedules,
        seed=seed,
    )


class TestSchedules:
    def test_jittered_gaps_stay_in_band(self):
        import random

        schedule = NodeSchedule(period=10.0, jitter=0.2)
        rng = random.Random(0)
        gaps = [schedule.next_gap(rng) for _ in range(200)]
        assert all(8.0 <= gap <= 12.0 for gap in gaps)
        assert len(set(gaps)) > 100  # actually jittered

    def test_zero_jitter_is_exact(self):
        import random

        schedule = NodeSchedule(period=7.0, jitter=0.0)
        assert schedule.next_gap(random.Random(0)) == 7.0

    def test_schedule_count_must_match_nodes(self):
        with pytest.raises(ValueError):
            make_sim(n_nodes=3, schedules=[NodeSchedule()])


class TestAsynchronousPropagation:
    def test_update_spreads_without_global_rounds(self):
        sim = make_sim()
        sim.schedule_update(1.0, 0, ITEMS[0], Put(b"v"))
        converged_at = sim.run_until_converged(deadline=500.0)
        assert converged_at < 200.0
        assert all(node.read(ITEMS[0]) == b"v" for node in sim.nodes)
        assert sim.ground_truth.fully_current(sim.nodes)

    def test_sessions_follow_per_node_periods(self):
        fast = NodeSchedule(period=1.0, jitter=0.0)
        slow = NodeSchedule(period=100.0, jitter=0.0)
        sim = make_sim(n_nodes=2, schedules=[fast, slow])
        sim.run_until(50.0)
        # Node 0 synced ~50 times; node 1 never got its first slot.
        assert 45 <= sim.sessions_run <= 55

    def test_deterministic_under_seed(self):
        def one_run():
            sim = make_sim(seed=9)
            sim.schedule_update(2.0, 1, ITEMS[3], Put(b"x"))
            sim.run_until(100.0)
            return sim.sessions_run, sim.total_counters.snapshot()

        assert one_run() == one_run()

    def test_updates_interleave_with_sessions_at_event_granularity(self):
        sim = make_sim()
        for step in range(10):
            sim.schedule_update(
                float(step) + 0.5, step % 4, ITEMS[step], Put(f"v{step}".encode())
            )
        sim.run_until_converged(deadline=1000.0)
        assert sim.ground_truth.fully_current(sim.nodes)


class TestFailuresInTime:
    def test_crashed_node_skips_sessions_and_recovers(self):
        sim = make_sim(n_nodes=3, schedules=[NodeSchedule(5.0, 0.0)] * 3)
        sim.schedule_update(1.0, 0, ITEMS[0], Put(b"v"))
        sim.schedule_crash(2.0, 2)
        sim.schedule_recovery(60.0, 2)
        sim.run_until(50.0)
        assert sim.nodes[2].read(ITEMS[0]) == b""
        assert sim.converged()  # live nodes only
        sim.run_until_converged(deadline=300.0)
        assert sim.nodes[2].read(ITEMS[0]) == b"v"

    def test_update_on_crashed_node_is_rejected(self):
        sim = make_sim(n_nodes=3)
        sim.schedule_crash(1.0, 1)
        sim.schedule_update(2.0, 1, ITEMS[0], Put(b"v"))
        sim.run_until(10.0)
        assert sim.updates_rejected == 1
        assert sim.ground_truth.value(ITEMS[0]) == b""

    def test_non_convergence_hits_deadline(self):
        sim = make_sim(n_nodes=3)
        # A planted conflict can never converge without resolution.
        sim.schedule_update(1.0, 0, ITEMS[0], Put(b"a"))
        sim.schedule_update(1.0, 1, ITEMS[0], Put(b"b"))
        with pytest.raises(AssertionError):
            sim.run_until_converged(deadline=200.0)


class TestCoverageInEventTime:
    def test_coverage_builds_over_simulated_time(self):
        sim = make_sim(n_nodes=4, seed=12)
        sim.run_until_converged(deadline=1000.0)
        # Convergence of a fresh cluster is trivial; keep going until
        # the Theorem 5 premise is satisfied in event time too.
        while not sim.coverage.is_fully_covered():
            sim.run_until(sim.now + 10.0)
            assert sim.now < 2_000.0
        assert sim.coverage.coverage_time is not None
        assert sim.coverage.coverage_time <= sim.now

    def test_failed_sessions_do_not_count_as_coverage(self):
        sim = make_sim(n_nodes=2, seed=13)
        sim.schedule_crash(0.5, 1)
        sim.run_until(100.0)
        # Every session node 0 attempted targeted the dead node 1.
        assert sim.sessions_failed == sim.sessions_run
        assert not sim.coverage.has_propagated_from(0, 1)


class TestComposedCluster:
    def test_sessions_run_on_the_cluster_session_step(self):
        sim = make_sim(n_nodes=3, schedules=[NodeSchedule(5.0, 0.0)] * 3)
        sim.schedule_update(1.0, 0, ITEMS[0], Put(b"v"))
        sim.run_until(40.0)
        # The composed cluster's network, counters and ground truth are
        # the ones the event clock exposes, and its rounds never ran.
        assert sim.network is sim.cluster.network
        assert sim.ground_truth is sim.cluster.ground_truth
        assert sim.cluster.round_no == 0
        assert sim.network_counters.messages_sent > 0

    def test_durable_recovery_rebuilds_the_node_from_its_journal(self, monkeypatch):
        monkeypatch.setenv("REPRO_DURABLE", "1")
        sim = make_sim(n_nodes=3, schedules=[NodeSchedule(5.0, 0.0)] * 3)
        sim.schedule_update(1.0, 1, ITEMS[0], Put(b"v"))
        sim.schedule_crash(12.0, 1)
        sim.schedule_recovery(30.0, 1)
        sim.run_until(20.0)
        before = sim.nodes[1].node
        sim.run_until_converged(deadline=300.0)
        journal = sim.cluster.journals[1]
        assert sim.nodes[1].node is not before
        assert journal.records_replayed >= 1
        assert sim.nodes[1].read(ITEMS[0]) == b"v"
        sim.nodes[1].check_invariants()
