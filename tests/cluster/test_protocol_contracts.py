"""The two contracts every protocol keeps, so that no fallback stands in
for a node that does not.

* ``state_digest()`` is the :class:`ContentDigest` token of the
  node's ``state_fingerprint()``: convergence is decided on it.
* Every ``(node, item)`` whose value a session changed is among that
  session's ``adopted_items``: the ground truth re-examines only those.

Both are checked for all seven protocols on seeded schedules of
updates and sessions, some of them failed mid-way by a dropped message
or a crash.  Any node writes any item, so histories conflict: the
contracts hold through conflict detection too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.network import SimulatedNetwork
from repro.experiments.common import PROTOCOLS, make_factory
from repro.interfaces import ContentDigest
from repro.obs import OverheadCounters
from repro.substrate.operations import Put

N_NODES = 3
ITEMS = ("a", "b", "c")

node_ids = st.integers(min_value=0, max_value=N_NODES - 1)
faults = st.one_of(
    st.none(),
    st.tuples(st.just("drop"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("crash"), node_ids, st.integers(min_value=1, max_value=3)),
)
steps = st.one_of(
    st.tuples(
        st.just("update"),
        node_ids,
        st.sampled_from(ITEMS),
        st.sampled_from([b"", b"x", b"y", b"zz"]),
    ),
    st.tuples(st.just("session"), node_ids, node_ids, faults),
)


def values(nodes):
    return [{item: node.fingerprint_value(item) for item in ITEMS} for node in nodes]


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
@settings(max_examples=40, deadline=None)
@given(program=st.lists(steps, max_size=30))
def test_digest_and_adopted_items_contracts(protocol, program):
    factory = make_factory(protocol, N_NODES, ITEMS)
    nodes = [factory(k, OverheadCounters()) for k in range(N_NODES)]
    network = SimulatedNetwork(N_NODES)
    for step in program:
        if step[0] == "update":
            _kind, node, item, value = step
            nodes[node].user_update(item, Put(value))
        else:
            _kind, initiator, peer, fault = step
            if initiator == peer:
                continue
            if fault is not None and fault[0] == "drop":
                network.arm_message_drop(fault[1])
            elif fault is not None:
                network.arm_mid_session_crash(fault[1], fault[2])
            before = values(nodes)
            stats = nodes[initiator].sync_with(nodes[peer], network)
            network.clear_armed_faults()
            for node in range(N_NODES):
                network.set_up(node)
            changed = {
                (node, item)
                for node, (old, new) in enumerate(zip(before, values(nodes)))
                for item in ITEMS
                if old[item] != new[item]
            }
            assert changed <= set(stats.adopted_items), (protocol, step, stats)
        for node in nodes:
            assert node.state_digest() == ContentDigest.recompute(
                node.state_fingerprint().items()
            ), (protocol, step)
