"""Byte accounting: every message a simulated session sends is charged
its modelled ``wire_size()``, delivered or dropped in flight, and the
network's counters and the sessions' stats agree with the messages that
left a sender."""

from repro.cluster.failures import (
    CrashMidSession,
    FailurePlan,
    LossyWindow,
    Recover,
)
from repro.cluster.simulation import ClusterSimulation
from repro.errors import MessageLostError
from repro.experiments.common import make_factory, make_items
from repro.substrate.operations import Put

N_NODES = 4
ITEMS = make_items(12)


def test_counters_sessions_and_frames_agree():
    plan = FailurePlan([
        LossyWindow(rate=0.3, at_round=2, until_round=5, seed=4),
        CrashMidSession(node=1, at_round=6, after_messages=1),
        Recover(node=1, at_round=8),
    ])
    sessions = []
    sim = ClusterSimulation(
        make_factory("dbvv", N_NODES, ITEMS),
        N_NODES,
        ITEMS,
        failure_plan=plan,
        session_observer=lambda _node, _peer, stats: sessions.append(stats),
        seed=3,
    )
    # Every message that left a sender: delivered, or lost in flight.  A
    # connect-time NodeDownError sends nothing.
    sent, lost = [], []
    deliver = sim.network.deliver

    def recording_deliver(src, dst, message):
        try:
            delivered = deliver(src, dst, message)
        except MessageLostError:
            lost.append(message)
            sent.append(message)
            raise
        sent.append(message)
        return delivered

    sim.network.deliver = recording_deliver
    for k, item in enumerate(ITEMS):
        sim.apply_update(k % N_NODES, item, Put(b"v%d" % k))
    for round_no in range(12):
        if round_no == 1:
            sim.network.arm_message_drop(2)
        sim.run_round()

    # Messages were lost in flight — the scripted drop fired, and so did
    # the loss window — and sessions failed after sending.
    assert sim.network.armed_fault_count() == 0
    assert len(lost) >= 2
    assert [stats for stats in sessions if stats.failed and stats.bytes_sent]
    session_bytes = sum(stats.bytes_sent for stats in sessions)
    assert sim.network_counters.bytes_sent == session_bytes
    assert session_bytes == sum(message.wire_size() for message in sent)
    assert sim.network_counters.messages_sent == len(sent)
    assert sum(sim.network.frame_census.values()) == len(sent)
