"""Incremental convergence/staleness tracking, and the simulation
accounting fixes that landed with it.

The tentpole contract under test: with tracking on, every query answer
(``converged()`` via state versions, ``stale_pairs`` via the ground
truth's dirty frontier) must equal what the from-scratch recomputation
would have said — across workloads, protocols, faults, and membership
growth.  The hypothesis machine at the bottom drives exactly that
equivalence; the unit tests pin the pieces.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.convergence import GroundTruth, fingerprints_equal
from repro.cluster.failures import Crash, CrashMidSession, FailurePlan, Recover
from repro.cluster.network import SimulatedNetwork
from repro.cluster.simulation import ClusterSimulation
from repro.core.messages import YouAreCurrent
from repro.core.protocol import DBVVProtocolNode
from repro.errors import (
    ConvergenceError,
    InvariantViolation,
    MessageLostError,
    ReplicationError,
)
from repro.experiments.common import make_factory, make_items
from repro.interfaces import ContentDigest, StateVersion, value_digest
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

ITEMS = make_items(12)


def make_sim(protocol="dbvv", n_nodes=4, seed=5, **kwargs):
    return ClusterSimulation(
        make_factory(protocol, n_nodes, ITEMS), n_nodes, ITEMS, seed=seed, **kwargs
    )


class TestContentDigest:
    def test_fresh_digest_is_zero(self):
        assert ContentDigest().token() == 0

    def test_empty_values_do_not_contribute(self):
        d = ContentDigest()
        d.replace("a", b"", b"")
        assert d.token() == 0

    def test_replace_round_trips(self):
        d = ContentDigest()
        d.replace("a", b"", b"x")
        d.replace("b", b"", b"y")
        d.replace("a", b"x", b"")
        d.replace("b", b"y", b"")
        assert d.token() == 0

    def test_order_independent(self):
        d1, d2 = ContentDigest(), ContentDigest()
        d1.replace("a", b"", b"x")
        d1.replace("b", b"", b"y")
        d2.replace("b", b"", b"y")
        d2.replace("a", b"", b"x")
        assert d1.token() == d2.token()

    def test_item_name_is_part_of_the_hash(self):
        d1, d2 = ContentDigest(), ContentDigest()
        d1.replace("a", b"", b"x")
        d2.replace("b", b"", b"x")
        assert d1.token() != d2.token()

    def test_recompute_matches_incremental(self):
        d = ContentDigest()
        d.replace("a", b"", b"1")
        d.replace("b", b"", b"2")
        d.replace("a", b"1", b"3")
        fresh = ContentDigest()
        fresh.recompute([("a", b"3"), ("b", b"2"), ("c", b"")])
        assert d.token() == fresh.token()

    def test_value_digest_separates_name_and_value(self):
        # The separator prevents ("ab", "c") colliding with ("a", "bc").
        assert value_digest("ab", b"c") != value_digest("a", b"bc")


class TestStateVersion:
    def test_matches_on_kind_and_digest(self):
        assert StateVersion("dbvv", 7).matches(StateVersion("dbvv", 7))
        assert not StateVersion("dbvv", 7).matches(StateVersion("dbvv", 8))
        assert not StateVersion("dbvv", 7).matches(StateVersion("lotus", 7))

    def test_certificate_is_informational_only(self):
        # A conflicted replica reports no certificate, but its digest
        # still decides equality (DBVV equality stops implying state
        # equality once a conflict froze a replica's accounting).
        with_cert = StateVersion("dbvv", 7, certificate=(1, 2))
        without = StateVersion("dbvv", 7, certificate=None)
        assert with_cert.matches(without)
        assert without.matches(with_cert)

    @pytest.mark.parametrize(
        "protocol",
        [
            "dbvv", "dbvv-delta", "per-item-vv", "lotus",
            "oracle-push", "wuu-bernstein", "agrawal-malpani",
        ],
    )
    def test_every_protocol_reports_a_version(self, protocol):
        sim = make_sim(protocol, n_nodes=2)
        version = sim.nodes[0].state_version()
        assert version is not None
        assert version.kind == protocol
        assert version.digest == 0  # all-empty replica

    def test_dbvv_certificate_suppressed_under_conflict(self):
        sim = make_sim("dbvv", n_nodes=2)
        assert sim.nodes[0].state_version().certificate == (0, 0)
        sim.apply_update(0, ITEMS[0], Put(b"a"))
        sim.apply_update(1, ITEMS[0], Put(b"b"))
        sim.run_round()  # conflict detected at some endpoint
        conflicted = [n for n in sim.nodes if n.conflict_count() > 0]
        assert conflicted
        assert all(n.state_version().certificate is None for n in conflicted)


class TestFingerprintsEqual:
    def test_fast_path_agrees_on_identical_nodes(self):
        sim = make_sim("per-item-vv", n_nodes=3)
        assert fingerprints_equal(sim.nodes)
        assert fingerprints_equal(sim.nodes, use_versions=False)

    def test_fast_path_agrees_on_diverged_nodes(self):
        sim = make_sim("per-item-vv", n_nodes=3)
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        assert not fingerprints_equal(sim.nodes)
        assert not fingerprints_equal(sim.nodes, use_versions=False)

    def test_versionless_node_falls_back_to_full(self):
        class AdHoc:
            def state_version(self):
                return None

            def state_fingerprint(self):
                return {ITEMS[0]: b"v"}

        nodes = [AdHoc(), AdHoc()]
        assert fingerprints_equal(nodes)  # full path, no versions

    def test_crosscheck_counts_and_passes(self):
        sim = make_sim(n_nodes=3)
        counters = OverheadCounters()
        assert fingerprints_equal(sim.nodes, crosscheck=True, counters=counters)
        assert counters.tracking_crosschecks == 1

    def test_crosscheck_catches_a_lying_version(self):
        sim = make_sim("per-item-vv", n_nodes=2)
        sim.apply_update(0, ITEMS[0], Put(b"v"))  # states now differ
        lie = StateVersion("per-item-vv", 0)
        for node in sim.nodes:
            node.state_version = lambda: lie  # type: ignore[method-assign]
        with pytest.raises(InvariantViolation):
            fingerprints_equal(sim.nodes, crosscheck=True)


class TestGroundTruthTracking:
    def test_subset_queries_fall_back_to_recompute(self):
        sim = make_sim(n_nodes=3)
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        subset = sim.nodes[1:]
        assert not sim.ground_truth.tracking(subset)
        # Nodes 1 and 2 each lag on one item.
        assert sim.ground_truth.stale_pairs(subset) == 2

    def test_untracked_ground_truth_still_works(self):
        truth = GroundTruth(tuple(ITEMS))
        sim = make_sim(n_nodes=2)
        truth.apply(ITEMS[0], Put(b"v"))
        assert truth.stale_pairs(sim.nodes) == 2

    def test_updater_itself_is_reexamined(self):
        # A second update through the same node must dirty the pair
        # again — the truth moved under the updater too.
        sim = make_sim(n_nodes=2)
        sim.apply_update(0, ITEMS[0], Put(b"a"))
        assert sim.ground_truth.stale_pairs(sim.nodes) == 1  # node 1 lags
        sim.apply_update(0, ITEMS[0], Put(b"b"))
        assert sim.ground_truth.stale_pairs(sim.nodes) == 1
        assert sim.ground_truth.recompute_stale_pairs(sim.nodes) == 1

    def test_adoptions_clear_staleness_incrementally(self):
        sim = make_sim(n_nodes=3)
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        sim.run_until_converged(max_rounds=50)
        assert sim.ground_truth.stale_pairs(sim.nodes) == 0
        assert sim.ground_truth.recompute_stale_pairs(sim.nodes) == 0

    def test_reexaminations_are_frontier_sized(self):
        sim = make_sim(n_nodes=4)
        sim.run_round()  # drain the everything-starts-dirty frontier
        before = sim.network_counters.staleness_reexaminations
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        sim.ground_truth.stale_pairs(sim.nodes)
        examined = sim.network_counters.staleness_reexaminations - before
        # One item dirtied at each of 4 nodes — nowhere near n*N = 48.
        assert examined == 4

    def test_add_node_starts_fully_dirty(self):
        sim = make_sim(n_nodes=2)
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        sim.run_until_converged(max_rounds=30)
        sim.add_node(
            lambda node_id, counters, n: DBVVProtocolNode(
                node_id, n, ITEMS, counters=counters
            )
        )
        assert sim.ground_truth.stale_pairs(sim.nodes) == 1  # the newcomer
        sim.run_until_converged(max_rounds=60)
        assert sim.ground_truth.stale_pairs(sim.nodes) == 0
        assert sim.ground_truth.recompute_stale_pairs(sim.nodes) == 0

    def test_sanitize_mode_crosschecks_every_round(self):
        sim = make_sim(n_nodes=3, sanitize=True)
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        sim.run_round()
        assert sim.network_counters.tracking_crosschecks > 0


class TestAccountingFixes:
    """Satellites: total_counters completeness and the full-mesh retry
    drain."""

    def test_total_counters_include_network_accounting(self):
        plan = FailurePlan([
            CrashMidSession(node=1, at_round=2),
            Recover(node=1, at_round=4),
        ])
        sim = make_sim(
            n_nodes=3,
            failure_plan=plan,
            retry_attempts=2,
        )
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        for _ in range(8):
            sim.run_round()
        net = sim.network_counters
        assert net.sessions_aborted > 0
        assert net.sessions_retried > 0
        total = sim.total_counters
        # These all lived only on the network's counters and used to be
        # dropped by the hand-copying merge.
        assert total.sessions_aborted == net.sessions_aborted
        assert total.sessions_retried == net.sessions_retried
        assert (
            total.bytes_wasted_in_aborted_sessions
            == net.bytes_wasted_in_aborted_sessions
        )
        assert (
            total.staleness_reexaminations == net.staleness_reexaminations > 0
        )

    def test_full_mesh_rounds_run_due_retries(self):
        plan = FailurePlan([Crash(node=1, at_round=1), Recover(node=1, at_round=2)])
        sim = make_sim(
            n_nodes=3,
            failure_plan=plan,
            retry_attempts=2,
        )
        first = sim.run_full_mesh_round()
        assert first.failed_sessions > 0
        assert sim._pending_retries
        second = sim.run_full_mesh_round()
        assert second.retried_sessions > 0
        assert not sim._pending_retries
        assert sim.network_counters.sessions_retried == second.retried_sessions


class TestDropCrashComposition:
    """Satellite: an armed mid-session crash whose trigger message is
    itself dropped must still fire."""

    MSG = YouAreCurrent(0)

    def test_crash_fires_even_when_trigger_message_drops(self):
        net = SimulatedNetwork(2, ITEMS)
        net.arm_message_drop(nth_message=1)
        net.arm_mid_session_crash(1, after_messages=1)
        net.open_session(0, 1)
        with pytest.raises(MessageLostError):
            net.deliver(0, 1, self.MSG)
        # The message left node 0 whether or not it arrived, so the
        # armed crash consumed it and fired.
        assert not net.is_up(1)
        assert net.armed_fault_count() == 0

    def test_drop_alone_still_drops(self):
        net = SimulatedNetwork(2, ITEMS)
        net.arm_message_drop(nth_message=1)
        net.open_session(0, 1)
        with pytest.raises(MessageLostError):
            net.deliver(0, 1, self.MSG)
        assert net.is_up(0) and net.is_up(1)
        assert net.messages_dropped == 1


class TestConvergenceError:
    def test_non_convergence_raises_typed_error(self):
        # The paper's stranded-peer scenario: the originator pushes to
        # one peer, crashes, and push-without-forwarding can never
        # repair the divergence between the survivors.
        sim = make_sim("oracle-push", n_nodes=3)
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        stats = sim.nodes[0].sync_with(sim.nodes[1], sim.network)
        sim.ground_truth.note_adoptions(stats.adopted_items)
        sim.network.set_down(0)
        with pytest.raises(ConvergenceError):
            sim.run_until_converged(max_rounds=5)

    def test_taxonomy_and_assertion_compatibility(self):
        # In the ReplicationError taxonomy, and still an AssertionError
        # so pre-existing pytest.raises(AssertionError) tests hold.
        assert issubclass(ConvergenceError, ReplicationError)
        assert issubclass(ConvergenceError, AssertionError)


# -- the equivalence property ------------------------------------------------

_PROTOCOLS = (
    "dbvv", "dbvv-delta", "per-item-vv", "lotus",
    "oracle-push", "wuu-bernstein", "agrawal-malpani",
)

_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("update"),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=len(ITEMS) - 1),
            st.binary(min_size=0, max_size=6),
        ),
        st.tuples(st.just("round")),
        st.tuples(st.just("crash"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("recover"), st.integers(min_value=1, max_value=3)),
    ),
    min_size=1,
    max_size=25,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    protocol=st.sampled_from(_PROTOCOLS),
    n_nodes=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=_steps,
    grow=st.booleans(),
)
def test_incremental_always_equals_recompute(protocol, n_nodes, seed, steps, grow):
    """Across random workloads, faults, and membership growth, the
    incremental answers equal the from-scratch ones at every step."""
    sim = ClusterSimulation(
        make_factory(protocol, n_nodes, ITEMS), n_nodes, ITEMS, seed=seed
    )
    for step in steps:
        kind = step[0]
        if kind == "update":
            _, node, item_idx, payload = step
            node %= sim.n_nodes
            if sim.network.is_up(node):
                sim.apply_update(node, ITEMS[item_idx], Put(payload))
        elif kind == "round":
            sim.run_round()
        elif kind == "crash":
            node = step[1] % sim.n_nodes
            if node != 0:  # keep at least node 0 alive
                sim.network.set_down(node)
        elif kind == "recover":
            sim.network.set_up(step[1] % sim.n_nodes)
        assert sim.ground_truth.stale_pairs(sim.nodes) == (
            sim.ground_truth.recompute_stale_pairs(sim.nodes)
        ), f"divergence after {kind} step"
        live = [sim.nodes[k] for k in sim.up_nodes()]
        assert fingerprints_equal(live) == fingerprints_equal(
            live, use_versions=False
        )
    if grow and protocol in ("dbvv", "dbvv-delta"):
        node_cls = type(sim.nodes[0])
        sim.add_node(
            lambda node_id, counters, n: node_cls(
                node_id, n, ITEMS, counters=counters
            )
        )
        assert sim.ground_truth.stale_pairs(sim.nodes) == (
            sim.ground_truth.recompute_stale_pairs(sim.nodes)
        )
    for node in range(sim.n_nodes):
        sim.network.set_up(node)
    for _ in range(4):
        sim.run_round()
        assert sim.ground_truth.stale_pairs(sim.nodes) == (
            sim.ground_truth.recompute_stale_pairs(sim.nodes)
        )
    live = [sim.nodes[k] for k in sim.up_nodes()]
    assert fingerprints_equal(live) == fingerprints_equal(
        live, use_versions=False
    )
