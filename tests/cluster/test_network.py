"""Unit tests for the simulated network."""

import functools
import random

import pytest

from repro.cluster.network import SimulatedNetwork as _SimulatedNetwork
from repro.core.messages import PropagationRequest, YouAreCurrent
from repro.core.version_vector import VersionVector
from repro.errors import (
    InvariantViolation,
    MessageLostError,
    NodeDownError,
    SimulationError,
    UnknownNodeError,
)
from repro.obs import OverheadCounters
from tests.wire_caches import cache_size, link_cache_size

# Most of this module asserts the *modelled* accounting semantics —
# deliver() returning the identical object and charging wire_size() —
# which encoded mode intentionally replaces.  Pin wire=False so the
# assertions hold under REPRO_WIRE=1 too; TestWireMode exercises the
# encoded path explicitly.
SimulatedNetwork = functools.partial(_SimulatedNetwork, items=(), wire=False)

MSG = YouAreCurrent(0)  # any sized message


class TestDelivery:
    def test_deliver_returns_message_and_charges(self):
        counters = OverheadCounters()
        net = SimulatedNetwork(3, counters=counters)
        assert net.deliver(0, 1, MSG) is MSG
        assert counters.messages_sent == 1
        assert counters.bytes_sent == MSG.wire_size()

    def test_link_stats_are_directional(self):
        net = SimulatedNetwork(3)
        net.deliver(0, 1, MSG)
        net.deliver(0, 1, MSG)
        net.deliver(1, 0, MSG)
        assert net.link_stats(0, 1).messages == 2
        assert net.link_stats(1, 0).messages == 1
        assert net.link_stats(2, 0).messages == 0
        assert net.total_messages() == 3
        assert net.total_bytes() == 3 * MSG.wire_size()

    def test_unknown_nodes_rejected(self):
        net = SimulatedNetwork(2)
        with pytest.raises(UnknownNodeError):
            net.deliver(0, 9, MSG)
        with pytest.raises(UnknownNodeError):
            net.is_up(-1)


class TestLiveness:
    def test_down_destination_raises(self):
        net = SimulatedNetwork(2)
        net.set_down(1)
        with pytest.raises(NodeDownError):
            net.deliver(0, 1, MSG)

    def test_down_source_raises(self):
        net = SimulatedNetwork(2)
        net.set_down(0)
        with pytest.raises(NodeDownError):
            net.deliver(0, 1, MSG)

    def test_recovery_restores_delivery(self):
        net = SimulatedNetwork(2)
        net.set_down(1)
        net.set_up(1)
        net.deliver(0, 1, MSG)

    def test_no_charge_for_failed_connect(self):
        counters = OverheadCounters()
        net = SimulatedNetwork(2, counters=counters)
        net.set_down(1)
        with pytest.raises(NodeDownError):
            net.deliver(0, 1, MSG)
        assert counters.messages_sent == 0


class TestPartitions:
    def test_partitioned_nodes_cannot_communicate(self):
        net = SimulatedNetwork(4)
        net.partition([[0, 1], [2, 3]])
        net.deliver(0, 1, MSG)
        net.deliver(2, 3, MSG)
        with pytest.raises(NodeDownError):
            net.deliver(0, 2, MSG)
        assert not net.can_reach(1, 3)

    def test_unlisted_nodes_become_singletons(self):
        net = SimulatedNetwork(3)
        net.partition([[0, 1]])
        with pytest.raises(NodeDownError):
            net.deliver(0, 2, MSG)

    def test_heal_restores_full_connectivity(self):
        net = SimulatedNetwork(4)
        net.partition([[0], [1], [2], [3]])
        net.heal()
        net.deliver(0, 3, MSG)

    def test_node_in_two_groups_rejected(self):
        net = SimulatedNetwork(3)
        with pytest.raises(ValueError):
            net.partition([[0, 1], [1, 2]])

    def test_heal_does_not_revive_crashed_nodes(self):
        net = SimulatedNetwork(2)
        net.set_down(1)
        net.heal()
        with pytest.raises(NodeDownError):
            net.deliver(0, 1, MSG)


class TestLoss:
    def test_loss_requires_rng(self):
        with pytest.raises(ValueError):
            SimulatedNetwork(2, loss_rate=0.5)

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            SimulatedNetwork(2, loss_rate=1.0, rng=random.Random(0))

    def test_lossy_network_drops_deterministically(self):
        net = SimulatedNetwork(2, loss_rate=0.5, rng=random.Random(42))
        outcomes = []
        for _ in range(50):
            try:
                net.deliver(0, 1, MSG)
                outcomes.append(True)
            except MessageLostError:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)
        assert net.messages_dropped == outcomes.count(False)
        # Deterministic under the same seed.
        net2 = SimulatedNetwork(2, loss_rate=0.5, rng=random.Random(42))
        outcomes2 = []
        for _ in range(50):
            try:
                net2.deliver(0, 1, MSG)
                outcomes2.append(True)
            except MessageLostError:
                outcomes2.append(False)
        assert outcomes == outcomes2


class TestDropAccounting:
    def test_lost_message_is_charged_before_the_drop(self):
        """Regression: a dropped message left the sender — its bytes are
        real traffic and must hit the global and per-link counters, the
        same as a delivered one, *plus* the drop counters."""
        counters = OverheadCounters()
        # loss_rate ~ 1 is disallowed; 0.999 with any seed drops the
        # first message with near certainty — assert it actually did.
        net = SimulatedNetwork(2, counters=counters, loss_rate=0.999,
                               rng=random.Random(7))
        with pytest.raises(MessageLostError):
            net.deliver(0, 1, MSG)
        assert counters.messages_sent == 1
        assert counters.bytes_sent == MSG.wire_size()
        assert net.link_stats(0, 1).messages == 1
        assert net.link_stats(0, 1).bytes == MSG.wire_size()
        assert net.link_stats(0, 1).dropped == 1
        assert net.messages_dropped == 1
        assert net.bytes_dropped == MSG.wire_size()

    def test_connect_time_failure_still_free(self):
        counters = OverheadCounters()
        net = SimulatedNetwork(2, counters=counters)
        net.set_down(1)
        with pytest.raises(NodeDownError):
            net.deliver(0, 1, MSG)
        assert counters.messages_sent == 0
        assert net.link_stats(0, 1).messages == 0


class TestLossWindows:
    def test_nonzero_rate_requires_rng(self):
        net = SimulatedNetwork(2)
        with pytest.raises(ValueError):
            net.push_loss_rate(0.5)

    def test_rate_bounds_enforced(self):
        net = SimulatedNetwork(2)
        with pytest.raises(ValueError):
            net.push_loss_rate(1.0, rng=random.Random(0))


class TestSessionScopes:
    def test_session_attributes_messages_and_bytes(self):
        net = SimulatedNetwork(2)
        scope = net.open_session(0, 1)
        net.deliver(0, 1, MSG)
        net.deliver(1, 0, MSG)
        assert scope.messages == 2
        assert scope.bytes_sent == 2 * MSG.wire_size()

    def test_closed_session_stops_attribution(self):
        net = SimulatedNetwork(2)
        scope = net.open_session(0, 1)
        net.deliver(0, 1, MSG)
        scope.close()
        net.deliver(0, 1, MSG)
        assert scope.messages == 1


class TestScriptedFaults:
    def test_armed_drop_kills_the_nth_session_message(self):
        net = SimulatedNetwork(2)
        net.arm_message_drop(nth_message=2)
        net.open_session(0, 1)
        net.deliver(0, 1, MSG)               # message 1 passes
        with pytest.raises(MessageLostError):
            net.deliver(1, 0, MSG)           # message 2 dropped
        assert net.armed_fault_count() == 0
        # One-shot: a later session is unaffected.
        net.open_session(0, 1)
        net.deliver(0, 1, MSG)
        net.deliver(1, 0, MSG)

    def test_armed_drop_ignores_sessionless_traffic(self):
        net = SimulatedNetwork(2)
        net.arm_message_drop(nth_message=1)
        net.deliver(0, 1, MSG)               # no session open: passes
        assert net.armed_fault_count() == 1

    def test_mid_session_crash_fires_between_messages(self):
        net = SimulatedNetwork(2)
        net.arm_mid_session_crash(1, after_messages=1)
        net.open_session(0, 1)
        net.deliver(0, 1, MSG)               # delivered; then node 1 dies
        assert not net.is_up(1)
        with pytest.raises(NodeDownError):
            net.deliver(1, 0, MSG)           # next message finds it dead
        assert net.armed_fault_count() == 0

    def test_mid_session_crash_waits_for_a_session_with_the_node(self):
        net = SimulatedNetwork(3)
        net.arm_mid_session_crash(2, after_messages=1)
        net.open_session(0, 1)
        net.deliver(0, 1, MSG)
        assert net.is_up(2)                  # uninvolved session: no fire
        net.open_session(0, 2)
        net.deliver(0, 2, MSG)
        assert not net.is_up(2)

    def test_arm_validation(self):
        net = SimulatedNetwork(2)
        with pytest.raises(ValueError):
            net.arm_mid_session_crash(0, after_messages=0)
        with pytest.raises(ValueError):
            net.arm_message_drop(nth_message=0)


class TestDynamicGrowth:
    def test_add_node_joins_up_and_reachable(self):
        net = SimulatedNetwork(2)
        new_id = net.add_node()
        assert new_id == 2
        assert net.n_nodes == 3
        assert net.is_up(2)
        net.deliver(0, 2, MSG)
        net.deliver(2, 1, MSG)

    def test_add_node_during_partition_is_isolated(self):
        """Regression: a node added while a partition is active used to
        be dumped into group 0 unconditionally, silently making it
        reachable from one arbitrary side.  It must start in a fresh
        singleton group — unreachable from *every* existing group —
        until the partition heals."""
        net = SimulatedNetwork(3)
        net.partition([[0, 1], [2]])
        new_id = net.add_node()
        assert not net.can_reach(0, new_id)
        assert not net.can_reach(1, new_id)
        assert not net.can_reach(2, new_id)
        net.heal()
        assert net.can_reach(0, new_id)
        assert net.can_reach(2, new_id)

    def test_add_node_without_partition_is_reachable(self):
        """No partition active: the newcomer joins the single universal
        group and is immediately reachable."""
        net = SimulatedNetwork(3)
        new_id = net.add_node()
        assert net.can_reach(0, new_id)
        # Also after a partition came and went (heal resets groups).
        net.partition([[0, 1], [2, 3]])
        net.heal()
        later_id = net.add_node()
        assert net.can_reach(2, later_id)


class TestWireMode:
    """The network's encoded mode: real frames, byte-exact counters."""

    @staticmethod
    def make_wire_net(n=3, **kwargs):
        return _SimulatedNetwork(n, (), wire=True, **kwargs)

    def test_deliver_returns_decoded_equal_message(self):
        net = self.make_wire_net()
        request = PropagationRequest(1, VersionVector.from_counts((2, 0, 5)))
        delivered = net.deliver(0, 1, request)
        assert delivered == request
        assert delivered is not request  # it crossed the wire

    def test_counters_charge_frame_length_and_track_model(self):
        counters = OverheadCounters()
        net = self.make_wire_net(counters=counters)
        request = PropagationRequest(1, VersionVector.from_counts((2, 0, 5)))
        net.deliver(0, 1, request)
        frame_len = net._codec.encode(9 % 3, 2, request)  # fresh link
        assert counters.bytes_sent < request.wire_size()  # varints shrink it
        assert counters.modelled_bytes_sent == request.wire_size()
        assert net.link_stats(0, 1).bytes == counters.bytes_sent
        assert len(frame_len) == counters.bytes_sent

    def test_repeated_vector_shrinks_via_delta(self):
        net = self.make_wire_net()
        request = PropagationRequest(1, VersionVector.from_counts((7, 3, 9)))
        net.deliver(0, 1, request)
        first = net.link_stats(0, 1).bytes
        net.deliver(0, 1, request)
        second = net.link_stats(0, 1).bytes - first
        assert second < first  # unchanged vector went as an empty delta

    def test_unregistered_message_cannot_ship(self):
        from repro.errors import WireFormatError

        class NotRegistered:
            def wire_size(self):
                return 8

        net = self.make_wire_net()
        with pytest.raises(WireFormatError):
            net.deliver(0, 1, NotRegistered())

    def test_crash_and_recovery_invalidate_caches(self):
        net = self.make_wire_net()
        request = PropagationRequest(1, VersionVector.from_counts((1, 1, 1)))
        net.deliver(0, 1, request)
        assert cache_size(net._codec) > 0
        net.set_down(1)
        assert cache_size(net._codec) == 0
        net.set_up(1)
        # The next exchange must fall back to a full vector and succeed.
        delivered = net.deliver(0, 1, request)
        assert delivered == request

    def test_in_flight_drop_invalidates_link(self):
        net = self.make_wire_net()
        request = PropagationRequest(1, VersionVector.from_counts((4, 4, 4)))
        net.open_session(0, 1)
        net.deliver(0, 1, request)
        net.open_session(0, 1)
        net.arm_message_drop(nth_message=1)
        with pytest.raises(MessageLostError):
            net.deliver(0, 1, request)
        assert link_cache_size(net._codec, 0, 1) == 0, (
            "dropped frame must wipe the link's caches"
        )
        # Delivery after the drop re-sends a full vector cleanly.
        assert net.deliver(0, 1, request) == request

    def test_sanitize_crosschecks_roundtrip(self):
        net = self.make_wire_net(sanitize=True)
        request = PropagationRequest(1, VersionVector.from_counts((1, 2, 3)))
        assert net.deliver(0, 1, request) == request

    def test_sanitize_flags_codec_divergence(self):
        """Force a sender/receiver cache divergence the protocol layer
        would never produce, and check the cross-check catches the
        resulting wrong decode."""
        net = self.make_wire_net(sanitize=True)
        request = PropagationRequest(1, VersionVector.from_counts((5, 5, 5)))
        net.deliver(0, 1, request)
        # Corrupt the receiver's cached base behind the codec's back.
        net._codec._seen[(0, 1)]["dbvv"] = (0, 0, 0)
        bumped = PropagationRequest(1, VersionVector.from_counts((6, 5, 5)))
        with pytest.raises(InvariantViolation):
            net.deliver(0, 1, bumped)

    def test_wire_false_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WIRE", "1")
        net = _SimulatedNetwork(2, (), wire=False)
        assert net.deliver(0, 1, MSG) is MSG

    def test_env_var_enables_wire(self, monkeypatch):
        monkeypatch.setenv("REPRO_WIRE", "1")
        net = _SimulatedNetwork(2, ())
        assert net.wire is True


class TestStackedLossWindows:
    def test_windows_stack_and_unwind_in_nested_order(self):
        net = SimulatedNetwork(2, loss_rate=0.1, rng=random.Random(5))
        outer = net.push_loss_rate(0.5)
        assert net.loss_rate == 0.5
        inner = net.push_loss_rate(0.9)
        assert net.loss_rate == 0.9
        assert net.open_loss_windows() == 2
        net.pop_loss_rate(inner)
        assert net.loss_rate == 0.5
        net.pop_loss_rate(outer)
        assert net.loss_rate == 0.1
        assert net.open_loss_windows() == 0

    def test_staggered_close_keeps_the_younger_window_active(self):
        """The other ordering: the older window closes first while the
        younger one is still open — its rate must stay active (bare
        set/restore pairs used to clobber it back to the base rate)."""
        net = SimulatedNetwork(2, rng=random.Random(5))
        older = net.push_loss_rate(0.4)
        younger = net.push_loss_rate(0.8)
        net.pop_loss_rate(older)
        assert net.loss_rate == 0.8
        assert net.open_loss_windows() == 1
        net.pop_loss_rate(younger)
        assert net.loss_rate == 0.0

    def test_unknown_and_stale_tokens_raise(self):
        net = SimulatedNetwork(2, rng=random.Random(5))
        token = net.push_loss_rate(0.4)
        with pytest.raises(SimulationError):
            net.pop_loss_rate(token + 17)
        net.pop_loss_rate(token)
        with pytest.raises(SimulationError):
            net.pop_loss_rate(token)  # already closed

    def test_push_validates_like_the_constructor(self):
        net = SimulatedNetwork(2)
        with pytest.raises(ValueError):
            net.push_loss_rate(0.5)       # nonzero rate without an RNG
        with pytest.raises(ValueError):
            net.push_loss_rate(1.0, rng=random.Random(0))
        assert net.open_loss_windows() == 0


class TestPerLinkDropAccounting:
    def test_bytes_dropped_split_per_link_and_delivered_balances(self):
        net = SimulatedNetwork(2, loss_rate=0.5, rng=random.Random(11))
        attempts, drops = 40, {(0, 1): 0, (1, 0): 0}
        for index in range(attempts):
            src, dst = (0, 1) if index % 2 == 0 else (1, 0)
            try:
                net.deliver(src, dst, MSG)
            except MessageLostError:
                drops[(src, dst)] += 1
        size = MSG.wire_size()
        for (src, dst), dropped in drops.items():
            stats = net.link_stats(src, dst)
            assert stats.bytes == (attempts // 2) * size
            assert stats.bytes_dropped == dropped * size
            assert stats.bytes_delivered == stats.bytes - stats.bytes_dropped
        assert net.bytes_dropped == sum(drops.values()) * size
        assert (
            net.total_bytes_delivered()
            == net.total_bytes() - net.bytes_dropped
        )

    def test_pristine_link_reports_zero_drops(self):
        net = SimulatedNetwork(3)
        net.deliver(0, 1, MSG)
        assert net.link_stats(0, 1).bytes_dropped == 0
        assert net.link_stats(0, 1).bytes_delivered == MSG.wire_size()
        assert net.link_stats(2, 1).bytes_delivered == 0


class TestFrameCensus:
    def test_census_counts_messages_by_type(self):
        net = SimulatedNetwork(2)
        request = PropagationRequest(1, VersionVector.from_counts((1, 0)))
        net.deliver(0, 1, request)
        net.deliver(1, 0, MSG)
        net.deliver(1, 0, MSG)
        assert net.frame_census == {
            "PropagationRequest": 1,
            "YouAreCurrent": 2,
        }

    def test_census_counts_dropped_frames_too(self):
        """A dropped frame left the sender; the census is a traffic
        census, not a delivery census."""
        net = SimulatedNetwork(2, loss_rate=0.999, rng=random.Random(7))
        with pytest.raises(MessageLostError):
            net.deliver(0, 1, MSG)
        assert net.frame_census == {"YouAreCurrent": 1}
