"""Unit tests for failure plans."""

import pytest

from repro.cluster.failures import (
    Crash,
    CrashMidSession,
    FailurePlan,
    HealEvent,
    LossyWindow,
    PartitionEvent,
    Recover,
)
from repro.cluster.network import SimulatedNetwork
from repro.core.messages import YouAreCurrent
from repro.errors import MessageLostError

MSG = YouAreCurrent(0)


def down_through(plan, net, first_round, last_round):
    """Apply rounds ``first_round .. last_round``; the nodes then down."""
    for round_no in range(first_round, last_round + 1):
        plan.apply_round(round_no, net)
    return {node for node in range(net.n_nodes) if not net.is_up(node)}


class TestFailurePlan:
    def test_crash_and_recover_fire_at_their_rounds(self):
        plan = FailurePlan([Crash(node=1, at_round=2), Recover(node=1, at_round=4)])
        net = SimulatedNetwork(3)
        assert plan.apply_round(1, net) == []
        assert net.is_up(1)
        plan.apply_round(2, net)
        assert not net.is_up(1)
        plan.apply_round(3, net)
        assert not net.is_up(1)
        plan.apply_round(4, net)
        assert net.is_up(1)

    def test_partition_and_heal(self):
        plan = FailurePlan([
            PartitionEvent(groups=((0, 1), (2,)), at_round=1),
            HealEvent(at_round=3),
        ])
        net = SimulatedNetwork(3)
        plan.apply_round(1, net)
        assert net.can_reach(0, 1)
        assert not net.can_reach(0, 2)
        plan.apply_round(3, net)
        assert net.can_reach(0, 2)

    def test_crashed_through_tracks_down_set(self):
        plan = FailurePlan([
            Crash(node=0, at_round=1),
            Crash(node=1, at_round=3),
            Recover(node=0, at_round=5),
        ])
        net = SimulatedNetwork(3)
        assert down_through(plan, net, 0, 0) == set()
        assert down_through(plan, net, 1, 2) == {0}
        assert down_through(plan, net, 3, 4) == {0, 1}
        assert down_through(plan, net, 5, 5) == {1}

    def test_multiple_events_same_round(self):
        plan = FailurePlan([Crash(node=0, at_round=1), Crash(node=1, at_round=1)])
        net = SimulatedNetwork(3)
        fired = plan.apply_round(1, net)
        assert len(fired) == 2
        assert not net.is_up(0) and not net.is_up(1)


class TestCrashedThroughEdgeCases:
    """The nodes down at each round, as ``apply_round`` and the
    network's ``is_up`` report them."""

    def test_same_round_crash_then_recover_applies_in_list_order(self):
        plan = FailurePlan([
            Crash(node=0, at_round=2),
            Recover(node=0, at_round=2),
        ])
        net = SimulatedNetwork(2)
        # Both fire at round 2 in list order: crash, then recover — the
        # node ends round 2's start up.
        assert down_through(plan, net, 1, 2) == set()
        assert down_through(plan, net, 3, 3) == set()

    def test_same_round_recover_then_crash_leaves_node_down(self):
        plan = FailurePlan([
            Crash(node=0, at_round=1),
            Recover(node=0, at_round=3),
            Crash(node=0, at_round=3),
        ])
        net = SimulatedNetwork(2)
        assert down_through(plan, net, 1, 2) == {0}
        # Round 3: recover fires first (list order), then the crash.
        assert down_through(plan, net, 3, 3) == {0}

    def test_mid_session_crash_counts_from_the_next_round(self):
        plan = FailurePlan([
            CrashMidSession(node=1, at_round=4),
            Recover(node=1, at_round=9),
        ])
        net = SimulatedNetwork(2)
        # The crash fires *during* round 4, so at the start of round 4
        # the node is still up; once a session has touched it, it is
        # down until its recovery.
        assert down_through(plan, net, 1, 4) == set()
        net.open_session(0, 1)
        net.deliver(0, 1, MSG)
        assert down_through(plan, net, 5, 8) == {1}
        assert down_through(plan, net, 9, 9) == set()

    def test_mid_session_crash_same_round_as_plain_crash(self):
        plan = FailurePlan([
            CrashMidSession(node=0, at_round=2),
            Crash(node=1, at_round=2),
        ])
        net = SimulatedNetwork(3)
        # The start-of-round crash is visible at round 2; the
        # mid-session one only after a session touched node 0.
        assert down_through(plan, net, 1, 2) == {1}
        net.open_session(0, 2)
        net.deliver(0, 2, MSG)
        assert down_through(plan, net, 3, 3) == {0, 1}


class TestMidSessionEvents:
    def test_crash_mid_session_arms_the_network(self):
        plan = FailurePlan([CrashMidSession(node=1, at_round=2)])
        net = SimulatedNetwork(2)
        plan.apply_round(1, net)
        assert net.armed_fault_count() == 0
        plan.apply_round(2, net)
        assert net.armed_fault_count() == 1
        assert net.is_up(1)          # armed, not yet fired
        net.open_session(0, 1)
        net.deliver(0, 1, MSG)
        assert not net.is_up(1)      # fired between messages

    def test_lossy_window_opens_and_closes(self):
        plan = FailurePlan([
            LossyWindow(rate=0.999, at_round=2, until_round=4, seed=5),
        ])
        net = SimulatedNetwork(2)
        plan.apply_round(1, net)
        net.deliver(0, 1, MSG)                   # before the window
        fired = plan.apply_round(2, net)
        assert fired == [plan.events[0]]
        with pytest.raises(MessageLostError):
            net.deliver(0, 1, MSG)               # inside the window
        plan.apply_round(3, net)                 # window still open
        assert net.loss[0] == 0.999
        plan.apply_round(4, net)                 # closes
        assert net.loss is None
        net.deliver(0, 1, MSG)

    def test_lossy_window_validates_bounds(self):
        with pytest.raises(ValueError):
            LossyWindow(rate=0.5, at_round=3, until_round=3)

    def test_crash_mid_session_validates_message_count(self):
        # Caught at construction, not rounds later when the plan arms
        # the network.
        with pytest.raises(ValueError):
            CrashMidSession(node=0, at_round=1, after_messages=0)

    def test_pending_after_sees_window_close(self):
        plan = FailurePlan([
            LossyWindow(rate=0.5, at_round=2, until_round=6),
        ])
        assert plan.pending_after(2)
        assert plan.pending_after(5)
        assert not plan.pending_after(6)

    def test_pending_after_sees_scheduled_recovery(self):
        plan = FailurePlan([
            Crash(node=0, at_round=1),
            Recover(node=0, at_round=4),
        ])
        assert plan.pending_after(3)
        assert not plan.pending_after(4)


    def test_a_window_draws_from_its_own_seed(self):
        """A window's drops depend on its seed alone, not on windows
        that ran before it, and a closed window leaves no RNG behind."""

        def drops_in_round_5(events):
            plan = FailurePlan(events)
            net = SimulatedNetwork(2)
            for round_no in range(1, 6):
                plan.apply_round(round_no, net)
            pattern = ""
            for _ in range(20):
                try:
                    net.deliver(0, 1, MSG)
                    pattern += "0"
                except MessageLostError:
                    pattern += "1"
            plan.apply_round(6, net)
            assert net.loss is None
            return pattern

        alone = drops_in_round_5([LossyWindow(0.5, 5, 6, seed=2)])
        after_another = drops_in_round_5([
            LossyWindow(0.5, 1, 2, seed=1),
            LossyWindow(0.5, 5, 6, seed=2),
        ])
        assert "1" in alone
        assert after_another == alone


class TestOverlappingLossyWindows:
    """Overlapping :class:`LossyWindow` events in both close orderings.

    After every round the plan makes the most recently opened window
    that is still open the network's loss, so whichever window closes
    first, the rate falls back to the window still open — never
    silently to no loss (the overlapping-window clobbering bug).
    """

    def rates_by_round(self, plan, last_round, n_nodes=2):
        net = SimulatedNetwork(n_nodes)
        rates = {}
        for round_no in range(last_round + 1):
            plan.apply_round(round_no, net)
            rates[round_no] = net.loss[0] if net.loss else 0.0
        return rates

    def test_nested_windows_inner_closes_first(self):
        plan = FailurePlan([
            LossyWindow(rate=0.3, at_round=1, until_round=5, seed=1),
            LossyWindow(rate=0.7, at_round=2, until_round=4, seed=2),
        ])
        assert self.rates_by_round(plan, 6) == {
            0: 0.0, 1: 0.3, 2: 0.7, 3: 0.7, 4: 0.3, 5: 0.0, 6: 0.0,
        }

    def test_staggered_windows_older_closes_first(self):
        plan = FailurePlan([
            LossyWindow(rate=0.3, at_round=1, until_round=4, seed=1),
            LossyWindow(rate=0.7, at_round=2, until_round=6, seed=2),
        ])
        assert self.rates_by_round(plan, 7) == {
            0: 0.0, 1: 0.3, 2: 0.7, 3: 0.7, 4: 0.7, 5: 0.7, 6: 0.0,
            7: 0.0,
        }

    def test_event_declaration_order_does_not_matter(self):
        windows = [
            LossyWindow(rate=0.3, at_round=1, until_round=4, seed=1),
            LossyWindow(rate=0.7, at_round=2, until_round=6, seed=2),
        ]
        forward = FailurePlan(list(windows))
        backward = FailurePlan(list(reversed(windows)))
        assert self.rates_by_round(forward, 7) == self.rates_by_round(
            backward, 7
        )
