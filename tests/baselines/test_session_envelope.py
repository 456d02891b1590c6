"""The shared session envelope (``ProtocolNode.sync_with``) over all
seven adapters.

Each protocol only moves messages in its ``exchange`` hook; the
envelope turns a transport fault into a failed ``SyncStats``, and the
simulated network labels every message with its leg.  For every message
``k`` of a fault-free reference session, a scripted drop of message
``k`` and a scripted crash of either endpoint after ``k`` messages must
each report: failed, the leg of the message that died, exactly the
messages that left a sender, and the bytes the link counters charged —
with both endpoints still invariant-clean.
"""

from dataclasses import dataclass, field

import pytest

from repro.baselines.agrawal_malpani import AgrawalMalpaniNode
from repro.cluster.network import SimulatedNetwork
from repro.experiments.common import make_factory, make_items
from repro.interfaces import SessionPhase
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

ITEMS = make_items(4)

PROTOCOLS = (
    "dbvv",
    "dbvv-delta",
    "per-item-vv",
    "lotus",
    "oracle-push",
    "wuu-bernstein",
    "agrawal-malpani",
)


@dataclass
class LegRecordingNetwork(SimulatedNetwork):
    """Records ``(src, dst)`` of every delivery attempt."""

    legs: list[tuple[int, int]] = field(default_factory=list)

    def deliver(self, src, dst, message):
        self.legs.append((src, dst))
        return super().deliver(src, dst, message)


def make_pair(protocol):
    """A fresh initiator/responder pair whose next session (0 → 1) moves
    every message the protocol has: a pull with data to fetch, a push
    with a batch to ship, or — for Agrawal–Malpani — a log push, the
    vector exchange and a repair in each direction."""
    if protocol == "agrawal-malpani":
        a, b = (
            AgrawalMalpaniNode(k, 2, ITEMS, vector_exchange_every=1)
            for k in range(2)
        )
        a.user_update(ITEMS[0], Put(b"lost"))
        lossy = SimulatedNetwork(2)
        lossy.arm_message_drop(1)
        assert a.sync_with(b, lossy).failed  # cursor advanced, push lost
        a.user_update(ITEMS[1], Put(b"out-of-order"))
        b.user_update(ITEMS[2], Put(b"from-b"))
        return a, b
    factory = make_factory(protocol, 2, ITEMS)
    a, b = factory(0, OverheadCounters()), factory(1, OverheadCounters())
    writer = a if protocol == "oracle-push" else b
    writer.user_update(ITEMS[0], Put(b"x"))
    writer.user_update(ITEMS[1], Put(b"y"))
    return a, b


def leg_phase(leg):
    return SessionPhase.REQUEST_SENT if leg == (0, 1) else SessionPhase.REPLY_IN_FLIGHT


def reference_legs(protocol):
    net = LegRecordingNetwork(2, counters=OverheadCounters())
    a, b = make_pair(protocol)
    stats = a.sync_with(b, net)
    assert not stats.failed
    assert stats.messages == len(net.legs)
    assert stats.bytes_sent == link_bytes(net)
    return net.legs


def link_bytes(net):
    return net.counters.bytes_sent


def assert_clean(*nodes):
    for node in nodes:
        check = getattr(node, "check_invariants", None)
        if check is not None:
            check()


def fault_cases():
    for protocol in PROTOCOLS:
        count = len(reference_legs(protocol))
        for k in range(1, count + 1):
            yield pytest.param(protocol, "drop", k, None, id=f"{protocol}-drop{k}")
        for k in range(1, count):
            for node in (0, 1):
                yield pytest.param(
                    protocol, "crash", k, node, id=f"{protocol}-crash{node}after{k}"
                )


@pytest.mark.parametrize("protocol,fault,k,node", list(fault_cases()))
def test_fault_reports_its_leg_and_traffic(protocol, fault, k, node):
    legs = reference_legs(protocol)
    net = SimulatedNetwork(2, counters=OverheadCounters())
    if fault == "drop":
        net.arm_message_drop(k)
        failed_leg = legs[k - 1]        # message k left, then was lost
    else:
        net.arm_mid_session_crash(node, after_messages=k)
        failed_leg = legs[k]            # message k+1 finds a dead endpoint
    a, b = make_pair(protocol)
    stats = a.sync_with(b, net)
    assert stats.failed
    assert stats.aborted_phase is leg_phase(failed_leg)
    assert stats.messages == k
    assert stats.bytes_sent == link_bytes(net)
    assert_clean(a, b)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_direct_transport_stats_unchanged(protocol):
    """On a fault-free link with no counters sink the protocol's own
    message count stands and the session still carries the bytes a
    counted link charges (a DBVV pull is 2 messages)."""
    a, b = make_pair(protocol)
    stats = a.sync_with(b, SimulatedNetwork(2))
    assert not stats.failed
    assert stats.messages == len(reference_legs(protocol))
    counted = SimulatedNetwork(2, counters=OverheadCounters())
    c, d = make_pair(protocol)
    c.sync_with(d, counted)
    assert stats.bytes_sent == link_bytes(counted)
    if protocol == "dbvv":
        assert stats.messages == 2


def test_agrawal_malpani_peer_repair_travels_the_reply_leg_first():
    """The peer-side repair is requested by the responder, so its
    request is labelled reply-in-flight and its repair request-sent."""
    legs = reference_legs("agrawal-malpani")
    assert [leg_phase(leg) for leg in legs] == [
        SessionPhase.REQUEST_SENT,      # log push
        SessionPhase.REQUEST_SENT,      # my received-vector
        SessionPhase.REPLY_IN_FLIGHT,   # the peer's received-vector
        SessionPhase.REQUEST_SENT,      # my repair request
        SessionPhase.REPLY_IN_FLIGHT,   # the peer's repair
        SessionPhase.REPLY_IN_FLIGHT,   # the peer's repair request
        SessionPhase.REQUEST_SENT,      # my repair of the peer
    ]
    net = SimulatedNetwork(2)
    net.arm_message_drop(6)
    a, b = make_pair("agrawal-malpani")
    assert a.sync_with(b, net).aborted_phase is SessionPhase.REPLY_IN_FLIGHT
