"""The run-time invariant sanitizer: toggle resolution, the per-session
sweep in both simulation drivers, corruption detection, and accounting.
"""

import pytest

from repro.cluster.sanitizer import (
    DURABLE_ENV_VAR,
    SANITIZE_ENV_VAR,
    env_flag,
    sanitize_endpoints,
)
from repro.cluster.simulation import ClusterSimulation
from repro.errors import InvariantViolation
from repro.experiments.common import make_factory, make_items
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

ITEMS = make_items(10)


def make_sim(n_nodes=4, seed=3, **kwargs):
    return ClusterSimulation(
        make_factory("dbvv", n_nodes, ITEMS), n_nodes, ITEMS, seed=seed, **kwargs
    )


#: Every run-wide switch reads the same way: "false" or "off" leaves
#: each of them off, not just a missing or "0" value.
SWITCHES = (SANITIZE_ENV_VAR, DURABLE_ENV_VAR)


class TestToggleResolution:
    def test_explicit_value_wins_over_environment(self, monkeypatch):
        for var in SWITCHES:
            monkeypatch.setenv(var, "1")
            assert env_flag(var, False) is False, var
            monkeypatch.delenv(var)
            assert env_flag(var, True) is True, var

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_environment_values(self, monkeypatch, value):
        for var in SWITCHES:
            monkeypatch.setenv(var, value)
            assert env_flag(var, None) is True, var

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "nope"])
    def test_falsy_environment_values(self, monkeypatch, value):
        for var in SWITCHES:
            monkeypatch.setenv(var, value)
            assert env_flag(var, None) is False, var

    def test_default_is_off(self, monkeypatch):
        for var in SWITCHES:
            monkeypatch.delenv(var, raising=False)
            assert env_flag(var, None) is False, var

    def test_simulation_resolves_env_at_construction(self, monkeypatch):
        for var, attr in (
            (SANITIZE_ENV_VAR, "sanitize"),
            (DURABLE_ENV_VAR, "durable"),
        ):
            monkeypatch.setenv(var, "1")
            assert getattr(make_sim(), attr) is True, var
            assert getattr(make_sim(**{attr: False}), attr) is False, var
            monkeypatch.setenv(var, "off")
            assert getattr(make_sim(), attr) is False, var


class TestSessionSweep:
    def test_sanitize_counts_both_endpoints_every_session(self):
        sim = make_sim(sanitize=True)
        for i, item in enumerate(ITEMS):
            sim.apply_update(i % 4, item, Put(b"v"))
        stats = sim.run_round()
        assert stats.sessions > 0
        # Two endpoints swept per session attempt, including retries.
        assert sim.network_counters.sanitizer_checks >= 2 * stats.sessions

    def test_sanitize_off_runs_no_sweeps(self):
        sim = make_sim(sanitize=False)
        for i, item in enumerate(ITEMS):
            sim.apply_update(i % 4, item, Put(b"v"))
        sim.run_round()
        assert sim.network_counters.sanitizer_checks == 0

    def test_sanitize_does_not_change_convergence(self):
        results = []
        for sanitize in (False, True):
            sim = make_sim(sanitize=sanitize, seed=11)
            for i, item in enumerate(ITEMS):
                sim.apply_update(i % 4, item, Put(b"x%d" % i))
            rounds = sim.run_until_converged(max_rounds=50)
            results.append(rounds)
        assert results[0] == results[1]

    def test_corruption_is_caught_at_the_next_session(self):
        sim = make_sim(sanitize=True)
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        # Corrupt a replica behind the protocol's back: claim an update
        # from node 2 that no log records.  The next session touching
        # node 1 must trip the sweep.
        victim = sim.nodes[1].node
        victim.dbvv.record_local_update_by(2)
        with pytest.raises(InvariantViolation):
            for _ in range(20):
                sim.run_round()

    def test_event_sim_sweeps_sessions_too(self):
        from repro.cluster.event_sim import EventDrivenSimulation

        sim = EventDrivenSimulation(
            make_factory("dbvv", 4, ITEMS), 4, ITEMS, seed=5, sanitize=True
        )
        for i, item in enumerate(ITEMS):
            sim.schedule_update(float(i + 1), i % 4, item, Put(b"v"))
        sim.run_until(200.0)
        assert sim.network_counters.sanitizer_checks > 0


class TestSweepHelper:
    def test_nodes_without_check_invariants_are_skipped(self):
        class Opaque:
            pass

        counters = OverheadCounters()
        sanitize_endpoints([Opaque(), Opaque()], (0, 1), counters)
        assert counters.sanitizer_checks == 0

    def test_each_swept_endpoint_is_counted(self):
        swept = []

        class Checkable:
            def __init__(self, node_id):
                self.node_id = node_id

            def check_invariants(self):
                swept.append(self.node_id)

        counters = OverheadCounters()
        nodes = [Checkable(0), Checkable(1), Checkable(2)]
        sanitize_endpoints(nodes, (0, 2), counters)
        assert swept == [0, 2]
        assert counters.sanitizer_checks == 2

    def test_violation_propagates(self):
        class Corrupt:
            def check_invariants(self):
                raise InvariantViolation("broken replica")

        with pytest.raises(InvariantViolation):
            sanitize_endpoints([Corrupt()], (0,), OverheadCounters())
