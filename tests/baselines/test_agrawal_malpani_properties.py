"""Property-based tests for the Agrawal–Malpani baseline.

Random interleavings of single-writer updates, best-effort pushes, and
periodic vector exchanges must preserve the per-origin prefix shape of
every node's received-record lists and converge once enough exchanges
run — the repair path has to close any gap the fire-and-forget pushes
open.
"""

from hypothesis import given, settings, strategies as st

from repro.baselines.agrawal_malpani import AgrawalMalpaniNode
from repro.cluster.network import SimulatedNetwork
from repro.substrate.operations import Put

N_NODES = 3
ITEMS = [f"item-{k}" for k in range(4)]

steps = st.one_of(
    st.tuples(st.just("update"), st.integers(0, len(ITEMS) - 1)),
    st.tuples(st.just("sync"), st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 1)),
)
programs = st.lists(steps, max_size=40)


def execute(program, vector_exchange_every=3):
    transport = SimulatedNetwork(N_NODES)
    nodes = [
        AgrawalMalpaniNode(
            k, N_NODES, ITEMS, vector_exchange_every=vector_exchange_every
        )
        for k in range(N_NODES)
    ]
    counter = 0
    for step in program:
        if step[0] == "update":
            _tag, item_idx = step
            counter += 1
            nodes[item_idx % N_NODES].user_update(
                ITEMS[item_idx], Put(f"v{counter}".encode())
            )
        else:
            _tag, src, dst = step
            if src != dst:
                nodes[src].sync_with(nodes[dst], transport)
    return nodes, transport


@settings(max_examples=50, deadline=None)
@given(programs)
def test_received_lists_stay_dense_prefixes(program):
    nodes, _transport = execute(program)
    for node in nodes:
        for origin in range(N_NODES):
            records = node._received[origin]
            assert [r.seqno for r in records] == list(range(1, len(records) + 1)), (
                f"node {node.node_id} holds a gapped prefix for origin {origin}"
            )


@settings(max_examples=50, deadline=None)
@given(programs)
def test_exchanges_eventually_converge_everything(program):
    nodes, transport = execute(program, vector_exchange_every=1)
    # Every sync now includes the exchange; a full rotation repairs all.
    for _round in range(N_NODES + 1):
        for src in range(N_NODES):
            for dst in range(N_NODES):
                if src != dst:
                    nodes[src].sync_with(nodes[dst], transport)
    reference = nodes[0].state_fingerprint()
    for node in nodes[1:]:
        assert node.state_fingerprint() == reference
    vectors = {node.received_vector() for node in nodes}
    assert len(vectors) == 1, "received-vectors must agree after repair"
