"""Durable mode in the cluster simulator: journaled nodes, disk recovery.

With ``durable=True`` the simulator journals every DBVV-protocol node
and rebuilds a :class:`~repro.cluster.failures.Recover`-ed node from
its on-disk journal instead of trusting the in-memory object — the
paper's fail-stop "repaired server" made real.  Durable mode must be
behaviourally invisible: the same seed and workload converge to the
same state with and without it.
"""

import random

import pytest

from repro.cluster.failures import Crash, FailurePlan, Recover
from repro.cluster.simulation import ClusterSimulation
from repro.experiments.common import make_factory, make_items
from repro.substrate.operations import Put
from tests.node_state import node_state

ITEMS = make_items(6)


@pytest.fixture(autouse=True)
def _no_ambient_durable(monkeypatch):
    # CI's durable sweep exports REPRO_DURABLE=1 globally; these tests
    # compare durable against genuinely-plain runs, so the ambient
    # flag must not leak in.  Tests that exercise the env var set it
    # themselves.
    monkeypatch.delenv("REPRO_DURABLE", raising=False)


def make_sim(n_nodes=4, seed=5, protocol="dbvv", **kwargs):
    return ClusterSimulation(
        make_factory(protocol, n_nodes, ITEMS),
        n_nodes,
        ITEMS,
        seed=seed,
        **kwargs,
    )


def crashy_run(sim, rounds=10):
    """A deterministic single-writer workload under the failure plan."""
    rng = random.Random(42)
    for round_no in range(rounds):
        if sim.network.is_up(0) and rng.random() < 0.7:
            sim.apply_update(0, ITEMS[0], Put(f"a{round_no}".encode()))
        if sim.network.is_up(3) and rng.random() < 0.7:
            sim.apply_update(3, ITEMS[1], Put(f"b{round_no}".encode()))
        sim.run_round()
    sim.run_until_converged(max_rounds=60)
    return sim


PLAN = [
    Crash(node=1, at_round=2),
    Recover(node=1, at_round=5),
    Crash(node=2, at_round=6),
    Recover(node=2, at_round=8),
]


class TestDurableMode:
    def test_every_dbvv_node_gets_a_journal(self):
        sim = make_sim(durable=True)
        assert sorted(sim.journals) == [0, 1, 2, 3]
        assert all(j.fsync is False for j in sim.journals.values())

    def test_disabled_by_default(self):
        sim = make_sim()
        assert sim.durable is False
        assert sim.journals == {}

    def test_env_var_enables_durable_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_DURABLE", "1")
        sim = make_sim()
        assert sim.durable is True
        assert sim.journals

    def test_env_var_zero_keeps_it_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_DURABLE", "0")
        assert make_sim().durable is False

    def test_explicit_false_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DURABLE", "1")
        assert make_sim(durable=False).durable is False

    def test_data_dir_hosts_the_journals(self):
        # A run's files stay reachable through its journals.
        sim = make_sim(durable=True)
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        journal = sim.journals[0]
        assert journal.wal_path.exists()
        assert journal.wal_path.parent == journal.data_dir
        assert journal.checkpoint_path.parent == journal.data_dir

    def test_baseline_protocols_run_undisturbed(self):
        # Baselines have no attach_journal; durable mode must skip
        # them, not crash — env-driven durable CI sweeps every suite.
        sim = make_sim(protocol="lotus", durable=True)
        assert sim.journals == {}
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        sim.run_until_converged(max_rounds=30)


class TestRecoverFromDisk:
    def test_recovered_node_is_rebuilt_from_its_journal(self):
        plan = FailurePlan(list(PLAN))
        sim = crashy_run(make_sim(durable=True, failure_plan=plan))
        # Both recovered nodes replayed their journals from disk.
        assert sim.journals[1].records_replayed >= 1
        assert sim.journals[2].records_replayed >= 1
        for node in sim.nodes:
            node.check_invariants()

    def test_durable_run_matches_plain_run_exactly(self):
        plain = crashy_run(make_sim(failure_plan=FailurePlan(list(PLAN))))
        durable = crashy_run(
            make_sim(durable=True, failure_plan=FailurePlan(list(PLAN)))
        )
        for p, d in zip(plain.nodes, durable.nodes):
            assert node_state(p.node) == node_state(d.node)
        assert plain.round_no == durable.round_no

    def test_recover_without_durable_restores_in_memory(self):
        # Non-durable recovery (the pre-durable behaviour) still works:
        # the node simply resumes with its in-memory state.
        plan = FailurePlan(list(PLAN))
        sim = crashy_run(make_sim(failure_plan=plan))
        assert sim.converged()


@pytest.mark.parametrize("seed", [1, 9, 23])
def test_durable_parity_across_seeds(seed):
    plain = crashy_run(
        make_sim(seed=seed, failure_plan=FailurePlan(list(PLAN)))
    )
    durable = crashy_run(
        make_sim(seed=seed, durable=True, failure_plan=FailurePlan(list(PLAN)))
    )
    for p, d in zip(plain.nodes, durable.nodes):
        assert node_state(p.node) == node_state(d.node)
