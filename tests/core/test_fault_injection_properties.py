"""Property-based tests: interrupted sessions never corrupt a replica.

The tentpole safety property of mid-session fault injection.  For any
workload and any scripted fault — a message dropped in flight at either
fault point of the DBVV session (the request or the reply), or either
endpoint crashing between two messages — the session aborts cleanly:

* both endpoints still satisfy every cross-structure invariant
  (``check_invariants``);
* criterion C2 holds — no replica ever adopted a non-dominating copy
  (every item IVV moves monotonically, and an aborted session changes
  no durable state at all);
* after the fault clears, ordinary retry re-runs the session and the
  pair converges — an interruption delays propagation, never poisons it.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.network import SimulatedNetwork
from repro.core.protocol import DBVVProtocolNode
from repro.core.version_vector import VersionVector
from repro.obs import OverheadCounters
from repro.substrate.operations import Append

N_NODES = 2
ITEMS = [f"item-{k}" for k in range(4)]

# One update: (node, item index).  Counter-stamped payloads are applied
# in program order, so every program is conflict-prone only through
# genuine concurrency (same item updated on both sides between syncs).
updates = st.lists(
    st.tuples(st.integers(0, N_NODES - 1), st.integers(0, len(ITEMS) - 1)),
    max_size=12,
)

# Every fault point of the two-message DBVV session, on both endpoints:
#   ("drop", n)      — the n-th session message is lost in flight
#                      (n=1: request-sent, n=2: reply-in-flight);
#   ("crash", who, n) — endpoint `who` dies after the n-th message,
#                      i.e. between two messages of the session.
faults = st.sampled_from([
    ("drop", 1),
    ("drop", 2),
    ("crash", 0, 1),
    ("crash", 1, 1),
    ("crash", 0, 2),
    ("crash", 1, 2),
])


def build_pair(program):
    nodes = [
        DBVVProtocolNode(k, N_NODES, ITEMS, counters=OverheadCounters())
        for k in range(N_NODES)
    ]
    net = SimulatedNetwork(N_NODES, ITEMS, counters=OverheadCounters())
    for counter, (who, item_idx) in enumerate(program):
        nodes[who].user_update(ITEMS[item_idx], Append(f"{counter};".encode()))
    return nodes, net


def ivv_snapshot(node):
    return {
        entry.name: entry.ivv.copy() for entry in node.node.store
    }


def assert_c2_monotone(node, before):
    """No non-dominating adoption: every IVV moved forward (or stayed),
    never sideways or back."""
    for entry in node.node.store:
        old = before[entry.name]
        assert entry.ivv.dominates_or_equal(old), (
            f"C2 violated on node {node.node_id}: {entry.name} went "
            f"{old.as_tuple()} -> {entry.ivv.as_tuple()}"
        )


@settings(max_examples=60, deadline=None)
@given(updates, faults)
def test_faulted_session_aborts_cleanly_and_recovers(program, fault):
    nodes, net = build_pair(program)
    a, b = nodes
    before_a = ivv_snapshot(a)
    before_b = ivv_snapshot(b)
    fp_a = a.state_fingerprint()
    fp_b = b.state_fingerprint()

    if fault[0] == "drop":
        net.arm_message_drop(nth_message=fault[1])
    else:
        _tag, who, after = fault
        net.arm_mid_session_crash(who, after_messages=after)

    stats = a.sync_with(b, net)

    # Whatever happened, both replicas must still be internally sound.
    a.check_invariants()
    b.check_invariants()
    # C2: nothing moved backwards or sideways.
    assert_c2_monotone(a, before_a)
    assert_c2_monotone(b, before_b)

    if stats.failed:
        # The abort names the phase the session died in, and an aborted
        # pull changes no durable state on either side (the reply is
        # fully received before any adoption).
        assert stats.aborted_phase is not None
        assert a.state_fingerprint() == fp_a
        assert b.state_fingerprint() == fp_b

    # Recovery: clear the fault and retry until the pair converges.
    net.set_up(0)
    net.set_up(1)
    for _attempt in range(3):
        a.sync_with(b, net)
        b.sync_with(a, net)
    a.check_invariants()
    b.check_invariants()
    if a.conflict_count() == 0 and b.conflict_count() == 0:
        assert a.state_fingerprint() == b.state_fingerprint(), (
            "conflict-free pair failed to converge after the fault cleared"
        )


@settings(max_examples=40, deadline=None)
@given(updates, st.sampled_from([1, 2]))
def test_lossy_session_wastes_bytes_but_not_state(program, nth):
    """The wasted traffic of an aborted session is observable (the
    scope accounted it) and buys exactly zero state change."""
    nodes, net = build_pair(program)
    a, b = nodes
    fp_a = a.state_fingerprint()
    net.arm_message_drop(nth_message=nth)
    stats = a.sync_with(b, net)
    assert stats.failed
    assert stats.messages == nth
    assert stats.bytes_sent > 0
    assert a.state_fingerprint() == fp_a


@settings(max_examples=40, deadline=None)
@given(updates)
def test_crash_between_messages_leaves_responder_sound(program):
    """The responder has already processed the request when the crash
    fires (source-processed is a real intermediate state) — its
    invariants must hold even though the initiator never got the reply."""
    nodes, net = build_pair(program)
    a, b = nodes
    net.arm_mid_session_crash(0, after_messages=1)
    a.sync_with(b, net)
    b.check_invariants()
    # The responder's DBVV/log were read, not written: serving a request
    # must never change the source's durable state.
    assert isinstance(b.node.dbvv, VersionVector)
    a.check_invariants()
