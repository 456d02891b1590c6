"""Encoded-mode byte accounting: every message a simulated session sends
is charged the length of its encoded frame, delivered or dropped in
flight, and the network's counters, the sessions' stats and the frames
agree."""

import pytest

from repro.cluster.failures import (
    CrashMidSession,
    FailurePlan,
    LossyWindow,
    Recover,
)
from repro.cluster.network import SimulatedNetwork
from repro.cluster.simulation import ClusterSimulation
from repro.errors import WireFormatError
from repro.experiments.common import make_factory, make_items
from repro.obs import OverheadCounters
from repro.substrate.operations import Put
from repro.wire import WireCodec

N_NODES = 4
ITEMS = make_items(12)


class FrameRecordingCodec(WireCodec):
    """A codec that keeps every frame it encodes."""

    __slots__ = ("frames",)

    def __init__(self, schema):
        super().__init__(schema)
        self.frames = []

    def encode(self, src, dst, message):
        frame = super().encode(src, dst, message)
        self.frames.append(frame)
        return frame


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
        wire=True,
    )
    codec = FrameRecordingCodec(ITEMS)
    sim.network._codec = codec
    for k, item in enumerate(ITEMS):
        sim.apply_update(k % N_NODES, item, Put(b"v%d" % k))
    for round_no in range(12):
        if round_no == 1:
            sim.network.arm_message_drop(2)
        sim.run_round()

    # Frames were lost in flight: the scripted drop fired, and sessions
    # failed after sending.
    assert sim.network.armed_fault_count() == 0
    assert [stats for stats in sessions if stats.failed and stats.bytes_sent]
    session_bytes = sum(stats.bytes_sent for stats in sessions)
    assert sim.network_counters.bytes_sent == session_bytes
    assert session_bytes == sum(map(len, codec.frames))
    assert sim.network_counters.messages_sent == len(codec.frames)


def test_a_message_without_a_codec_cannot_be_sent():
    class Unregistered:
        __slots__ = ()

    counters = OverheadCounters()
    network = SimulatedNetwork(2, ITEMS, counters, wire=True)
    with pytest.raises(WireFormatError):
        network.deliver(0, 1, Unregistered())
    assert counters.messages_sent == counters.bytes_sent == 0
