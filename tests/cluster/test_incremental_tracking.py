"""Incremental convergence/staleness tracking, and the simulation
accounting fixes that landed with it.

The tentpole contract under test: with tracking on, every query answer
(``converged()`` via state versions, ``stale_pairs`` via the ground
truth's dirty frontier) must equal what the from-scratch recomputation
would have said — across workloads, protocols and faults.  The
hypothesis machine at the bottom drives exactly that equivalence; the
unit tests pin the pieces.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.convergence import GroundTruth, fingerprints_equal
from repro.cluster.failures import Crash, CrashMidSession, FailurePlan, Recover
from repro.cluster.network import SimulatedNetwork
from repro.cluster.simulation import ClusterSimulation
from repro.core.messages import YouAreCurrent
from repro.errors import (
    ConvergenceError,
    InvariantViolation,
    MessageLostError,
    ReplicationError,
)
from repro.experiments.common import make_factory, make_items
from repro.interfaces import ContentDigest, value_digest
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

ITEMS = make_items(12)


def make_sim(protocol="dbvv", n_nodes=4, seed=5, **kwargs):
    return ClusterSimulation(
        make_factory(protocol, n_nodes, ITEMS), n_nodes, ITEMS, seed=seed, **kwargs
    )


def snapshots_equal(nodes):
    """The reference comparison: full ``state_fingerprint()`` dicts."""
    return all(n.state_fingerprint() == nodes[0].state_fingerprint() for n in nodes)


class TestContentDigest:
    """The digest is marked on write and folded by ``token``, which
    reads the current values through the function it is given."""

    def test_fresh_digest_is_zero(self):
        assert ContentDigest().token({}.__getitem__) == 0

    def test_empty_values_do_not_contribute(self):
        d = ContentDigest()
        d.mark("a")
        assert d.token({"a": b""}.__getitem__) == 0

    def test_replace_round_trips(self):
        d = ContentDigest()
        values = {"a": b"x", "b": b"y"}
        d.mark("a")
        d.mark("b")
        assert d.token(values.__getitem__) != 0
        values.update(a=b"", b=b"")
        d.mark("a")
        d.mark("b")
        assert d.token(values.__getitem__) == 0

    def test_order_independent(self):
        d1, d2 = ContentDigest(), ContentDigest()
        values = {"a": b"x", "b": b"y"}
        d1.mark("a")
        d1.mark("b")
        d2.mark("b")
        d2.mark("a")
        assert d1.token(values.__getitem__) == d2.token(values.__getitem__)

    def test_item_name_is_part_of_the_hash(self):
        d1, d2 = ContentDigest(), ContentDigest()
        d1.mark("a")
        d2.mark("b")
        assert d1.token({"a": b"x"}.__getitem__) != d2.token({"b": b"x"}.__getitem__)

    def test_recompute_matches_incremental(self):
        d = ContentDigest()
        values = {"a": b"1", "b": b"2", "c": b""}
        d.mark("a")
        d.mark("b")
        d.token(values.__getitem__)
        values["a"] = b"3"
        d.mark("a")
        assert d.token(values.__getitem__) == ContentDigest.recompute(values.items())

    def test_reset_marks_the_given_items(self):
        d = ContentDigest()
        values = {"a": b"1", "b": b"2"}
        d.mark("a")
        d.token(values.__getitem__)
        d.reset(values)
        assert d.token(values.__getitem__) == ContentDigest.recompute(values.items())

    def test_value_digest_separates_name_and_value(self):
        # The separator prevents ("ab", "c") colliding with ("a", "bc").
        assert value_digest("ab", b"c") != value_digest("a", b"bc")


class TestStateDigest:
    @pytest.mark.parametrize(
        "protocol",
        [
            "dbvv", "dbvv-delta", "per-item-vv", "lotus",
            "oracle-push", "wuu-bernstein", "agrawal-malpani",
        ],
    )
    def test_every_protocol_reports_a_digest(self, protocol):
        sim = make_sim(protocol, n_nodes=2)
        assert sim.nodes[0].state_digest() == 0  # all-empty replica


class TestFingerprintsEqual:
    def test_fast_path_agrees_on_identical_nodes(self):
        sim = make_sim("per-item-vv", n_nodes=3)
        assert fingerprints_equal(sim.nodes)
        assert snapshots_equal(sim.nodes)

    def test_fast_path_agrees_on_diverged_nodes(self):
        sim = make_sim("per-item-vv", n_nodes=3)
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        assert not fingerprints_equal(sim.nodes)
        assert not snapshots_equal(sim.nodes)

    def test_crosscheck_counts_and_passes(self):
        sim = make_sim(n_nodes=3)
        counters = OverheadCounters()
        assert fingerprints_equal(sim.nodes, crosscheck=True, counters=counters)
        assert counters.tracking_crosschecks == 1

    def test_crosscheck_catches_a_lying_version(self):
        sim = make_sim("per-item-vv", n_nodes=2)
        sim.apply_update(0, ITEMS[0], Put(b"v"))  # states now differ
        for node in sim.nodes:
            node.state_digest = lambda: 0  # type: ignore[method-assign]
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
        assert sim.ground_truth.recompute_staleness(sim.nodes)[0] == 1

    def test_adoptions_clear_staleness_incrementally(self):
        sim = make_sim(n_nodes=3)
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        sim.run_until_converged(max_rounds=50)
        assert sim.ground_truth.stale_pairs(sim.nodes) == 0
        assert sim.ground_truth.recompute_staleness(sim.nodes)[0] == 0

    def test_reexaminations_are_frontier_sized(self):
        sim = make_sim(n_nodes=4)
        sim.run_round()  # drain whatever the first round left dirty
        before = sim.network_counters.staleness_reexaminations
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        sim.ground_truth.stale_pairs(sim.nodes)
        examined = sim.network_counters.staleness_reexaminations - before
        # One item dirtied at each of 4 nodes — nowhere near n*N = 48.
        assert examined == 4

    def test_a_fresh_cluster_starts_clean(self):
        sim = make_sim(n_nodes=4)
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        assert sim.ground_truth.stale_pairs(sim.nodes) == 3
        # The update's item at each node, not all n*N = 48 pairs.
        assert sim.network_counters.staleness_reexaminations == 4

    def test_a_node_unlike_the_truth_starts_fully_dirty(self):
        sim = make_sim(n_nodes=2)
        sim.nodes[1].user_update(ITEMS[3], Put(b"w"))  # behind the truth's back
        truth = GroundTruth(tuple(ITEMS))
        counters = OverheadCounters()
        truth.track(sim.nodes, counters)
        assert truth.stale_pairs(sim.nodes) == 1
        assert truth.recompute_staleness(sim.nodes)[0] == 1
        # Node 0 matches the (empty) truth; node 1 is examined in full.
        assert counters.staleness_reexaminations == len(ITEMS)

    def test_a_failed_session_reports_what_it_changed(self):
        """An agrawal-malpani session whose log push landed before its
        vector exchange was dropped changed the peer: the ground truth
        must see that adoption although the session failed."""
        sim = make_sim("agrawal-malpani", n_nodes=3)
        for _ in range(3):  # the fourth session runs a vector exchange
            sim.session_step(2, 0)
        sim.apply_update(2, ITEMS[0], Put(b"v"))
        assert sim.ground_truth.stale_pairs(sim.nodes) == 2
        sim.network.arm_message_drop(2)  # the vector exchange request
        assert sim.session_step(2, 0).failed
        assert sim.nodes[0].read(ITEMS[0]) == b"v"
        assert sim.ground_truth.stale_pairs(sim.nodes) == 1
        assert sim.ground_truth.recompute_staleness(sim.nodes)[0] == 1

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
        net = SimulatedNetwork(2)
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
        net = SimulatedNetwork(2)
        net.arm_message_drop(nth_message=1)
        net.open_session(0, 1)
        with pytest.raises(MessageLostError):
            net.deliver(0, 1, self.MSG)
        assert net.is_up(0) and net.is_up(1)
        assert net.armed_fault_count() == 0


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
)
def test_incremental_always_equals_recompute(protocol, n_nodes, seed, steps):
    """Across random workloads and faults, the incremental answers
    equal the from-scratch ones at every step."""
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
            sim.ground_truth.recompute_staleness(sim.nodes)[0]
        ), f"divergence after {kind} step"
        live = [sim.nodes[k] for k in sim.up_nodes()]
        assert fingerprints_equal(live) == snapshots_equal(live)
    for node in range(sim.n_nodes):
        sim.network.set_up(node)
    for _ in range(4):
        sim.run_round()
        assert sim.ground_truth.stale_pairs(sim.nodes) == (
            sim.ground_truth.recompute_staleness(sim.nodes)[0]
        )
    live = [sim.nodes[k] for k in sim.up_nodes()]
    assert fingerprints_equal(live) == snapshots_equal(live)
