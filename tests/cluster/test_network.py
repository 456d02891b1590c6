"""Unit tests for the simulated network."""

import random

import pytest

from repro.cluster.network import SimulatedNetwork
from repro.core.messages import PropagationRequest, YouAreCurrent
from repro.core.version_vector import VersionVector
from repro.errors import (
    MessageLostError,
    NodeDownError,
    UnknownNodeError,
)
from repro.obs import OverheadCounters

MSG = YouAreCurrent(0)  # any sized message


class TestDelivery:
    def test_deliver_returns_message_and_charges(self):
        counters = OverheadCounters()
        net = SimulatedNetwork(3, counters=counters)
        assert net.deliver(0, 1, MSG) is MSG
        assert counters.messages_sent == 1
        assert counters.bytes_sent == MSG.wire_size()

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
    def test_loss_rate_bounds(self):
        net = SimulatedNetwork(2)
        with pytest.raises(ValueError):
            net.set_loss((1.0, random.Random(0)))

    def test_a_refused_loss_leaves_the_active_one(self):
        net = SimulatedNetwork(2)
        active = (0.4, random.Random(5))
        net.set_loss(active)
        with pytest.raises(ValueError):
            net.set_loss((1.5, random.Random(0)))
        assert net.loss is active
        net.set_loss(None)
        assert net.loss is None
        net.deliver(0, 1, MSG)

    def test_lossy_network_drops_deterministically(self):
        counters = OverheadCounters()
        net = SimulatedNetwork(2, counters=counters)
        net.set_loss((0.5, random.Random(42)))
        outcomes = []
        for _ in range(50):
            try:
                net.deliver(0, 1, MSG)
                outcomes.append(True)
            except MessageLostError:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)
        # A dropped message left the sender: every attempt is charged.
        assert counters.messages_sent == len(outcomes)
        # Deterministic under the same seed.
        net2 = SimulatedNetwork(2)
        net2.set_loss((0.5, random.Random(42)))
        outcomes2 = []
        for _ in range(50):
            try:
                net2.deliver(0, 1, MSG)
                outcomes2.append(True)
            except MessageLostError:
                outcomes2.append(False)
        assert outcomes == outcomes2


class TestLossWindows:
    def test_rate_bounds_enforced(self):
        net = SimulatedNetwork(2)
        with pytest.raises(ValueError):
            net.set_loss((-0.1, random.Random(0)))


class TestDropAccounting:
    def test_lost_message_is_charged_before_the_drop(self):
        """Regression: a dropped message left the sender — its bytes are
        real traffic and must hit the counters, the same as a delivered
        one."""
        counters = OverheadCounters()
        # A rate of 1 is disallowed; 0.999 with any seed drops the
        # first message with near certainty — assert it actually did.
        net = SimulatedNetwork(2, counters=counters)
        net.set_loss((0.999, random.Random(7)))
        with pytest.raises(MessageLostError):
            net.deliver(0, 1, MSG)
        assert counters.messages_sent == 1
        assert counters.bytes_sent == MSG.wire_size()

    def test_connect_time_failure_still_free(self):
        counters = OverheadCounters()
        net = SimulatedNetwork(2, counters=counters)
        net.set_down(1)
        with pytest.raises(NodeDownError):
            net.deliver(0, 1, MSG)
        assert counters.messages_sent == 0


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


class TestPerLinkDropAccounting:
    def test_bytes_dropped_split_per_link_and_delivered_balances(self):
        """Dropped messages in both directions are charged like
        delivered ones: the counters see every attempt."""
        counters = OverheadCounters()
        net = SimulatedNetwork(2, counters=counters)
        net.set_loss((0.5, random.Random(11)))
        attempts, drops = 40, {(0, 1): 0, (1, 0): 0}
        for index in range(attempts):
            src, dst = (0, 1) if index % 2 == 0 else (1, 0)
            try:
                net.deliver(src, dst, MSG)
            except MessageLostError:
                drops[(src, dst)] += 1
        assert all(drops.values())
        assert counters.messages_sent == attempts
        assert counters.bytes_sent == attempts * MSG.wire_size()


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
        net = SimulatedNetwork(2)
        net.set_loss((0.999, random.Random(7)))
        with pytest.raises(MessageLostError):
            net.deliver(0, 1, MSG)
        assert net.frame_census == {"YouAreCurrent": 1}
