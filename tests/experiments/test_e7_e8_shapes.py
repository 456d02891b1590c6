"""Shape assertions for experiments E7 (convergence/Theorem 5) and E8
(end-to-end traffic)."""

import pytest

from repro.baselines.lotus import LotusNode
from repro.cluster.simulation import ClusterSimulation
from repro.errors import InvariantViolation
from repro.experiments.e7_convergence import (
    converge_once,
    run_conflict_detection,
    run_convergence,
)
from repro.experiments.e8_traffic import run as run_e8
from repro.cluster.scheduler import (
    RandomSelector,
    RingSelector,
    StarSelector,
    TopologySelector,
)


def chordal_cycle(n):
    """A cycle plus a chord across the ring from every fourth node."""
    edges = [(k, (k + 1) % n) for k in range(n)]
    edges += [(k, (k + n // 2) % n) for k in range(0, n, 4)]
    return TopologySelector(edges)


class TestE7Convergence:
    def test_random_epidemic_converges_sublinearly(self):
        """Classic epidemic behaviour: rounds grow far slower than n."""
        rounds_8 = converge_once(8, RandomSelector(), seed=1, updates=60)[0]
        rounds_32 = converge_once(32, RandomSelector(), seed=1, updates=60)[0]
        assert rounds_32 < 4 * rounds_8
        assert rounds_32 < 32  # far below linear

    def test_ring_converges_but_slower_at_scale(self):
        rounds_ring = converge_once(24, RingSelector(), seed=2, updates=60)[0]
        rounds_random = converge_once(24, RandomSelector(), seed=2, updates=60)[0]
        assert rounds_ring >= rounds_random

    def test_conflict_free_runs_report_zero_conflicts(self):
        """Criterion C2 under transitive scheduling (Theorem 5)."""
        for seed in (1, 2, 3):
            _rounds, conflicts = converge_once(6, RandomSelector(), seed=seed)
            assert conflicts == 0

    def test_planted_conflicts_are_all_detected(self):
        """Criterion C1: inconsistency is eventually detected."""
        result = run_conflict_detection(n_nodes=4, n_conflicts=8, seed=3)
        assert result.detected_items == result.planted
        assert result.silently_merged == 0


class TestE8Traffic:
    def test_all_protocols_converge_on_shared_trace(self):
        rows = run_e8(n_items=120, updates=200, updates_per_round=25)
        assert {row.protocol for row in rows} == {
            "dbvv", "dbvv-delta", "per-item-vv", "lotus", "oracle-push",
            "wuu-bernstein", "agrawal-malpani",
        }
        assert all(row.converged for row in rows)
        assert all(row.conflicts == 0 for row in rows)

    def test_dbvv_work_beats_per_item_scan_work(self):
        rows = {r.protocol: r for r in run_e8(n_items=400, updates=300)}
        assert rows["dbvv"].work < rows["per-item-vv"].work / 3

    def test_dbvv_bytes_beat_per_item_metadata(self):
        rows = {r.protocol: r for r in run_e8(n_items=400, updates=300)}
        assert rows["dbvv"].bytes_sent < rows["per-item-vv"].bytes_sent

    def test_epidemic_protocols_ship_items_at_most_once_per_recipient(self):
        """Bundling/no-redundant-shipping: with n-1 recipients, each of
        the u distinct updated items needs at most (n-1) transfers plus
        whatever staleness overlap the pacing causes; DBVV must not
        re-ship wildly."""
        rows = {r.protocol: r for r in run_e8(n_items=120, updates=200,
                                              updates_per_round=25, n_nodes=4)}
        dbvv = rows["dbvv"]
        # Loose upper bound: every shipped item reaches a new recipient.
        assert dbvv.items_shipped <= 200 * 3

    def test_invariant_violation_escapes_run(self, monkeypatch):
        """Only non-convergence becomes a "NO" row: an invariant broken
        inside a session while running to convergence propagates."""
        converging = []
        run_until_converged = ClusterSimulation.run_until_converged
        exchange = LotusNode.exchange

        def mark_converging(sim, *args, **kwargs):
            converging.append(sim)
            return run_until_converged(sim, *args, **kwargs)

        def broken_exchange(node, peer, transport, stats):
            if converging:
                raise InvariantViolation("replica corrupt")
            exchange(node, peer, transport, stats)

        monkeypatch.setattr(ClusterSimulation, "run_until_converged", mark_converging)
        monkeypatch.setattr(LotusNode, "exchange", broken_exchange)
        with pytest.raises(InvariantViolation, match="replica corrupt"):
            run_e8(n_nodes=3, n_items=20, updates=10, protocols=("lotus",))


class TestE7ExtendedSchedules:
    def test_star_and_chordal_cycle_converge(self):
        """Theorem 5 over additional topologies: hub-and-spoke is
        hub-bottlenecked (~n rounds: the hub pulls one spoke per
        round), a chorded cycle sits between log and linear."""
        rows = run_convergence(
            node_counts=(4, 16), seeds=(1, 2),
            families=[
                (lambda n: StarSelector(hub=0), "star"),
                (chordal_cycle, "chordal-cycle"),
            ],
        )
        by_key = {(r.selector, r.n_nodes): r for r in rows}
        assert all(r.conflicts == 0 for r in rows)
        # Star is linear in n (the hub round-robins its spokes).
        assert by_key[("star", 16)].mean_rounds >= 12
        # The chorded cycle beats the star at 16 nodes.
        assert (
            by_key[("chordal-cycle", 16)].mean_rounds
            < by_key[("star", 16)].mean_rounds
        )
