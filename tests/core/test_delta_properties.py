"""Property-based tests: operation shipping is transparent.

For any conflict-free program of updates and pulls, the operation-
shipping cluster must end in exactly the state of the whole-value
cluster (values AND vectors), for any history limit — small limits just
shift more payloads to the whole-value fallback.
"""

from hypothesis import given, settings, strategies as st

from repro.core.delta import DeltaEpidemicNode, DeltaPayload
from repro.core.node import EpidemicNode
from repro.substrate.operations import Append

N_NODES = 3
ITEMS = [f"item-{k}" for k in range(4)]

steps = st.one_of(
    st.tuples(st.just("update"), st.integers(0, len(ITEMS) - 1)),
    st.tuples(st.just("pull"), st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 1)),
)
programs = st.lists(steps, max_size=40)
limits = st.sampled_from([0, 1, 3, 64])


class CountingDeltaNode(DeltaEpidemicNode):
    """Counts the operation-shipping payloads it builds."""

    deltas_shipped = 0

    def _payload_for(self, entry, remote_dbvv):
        payload = super()._payload_for(entry, remote_dbvv)
        self.deltas_shipped += isinstance(payload, DeltaPayload)
        return payload


def run(cluster, program):
    counter = 0
    for step in program:
        if step[0] == "update":
            _tag, item_idx = step
            counter += 1
            cluster[item_idx % N_NODES].update(
                ITEMS[item_idx], Append(f"{counter};".encode())
            )
        else:
            _tag, dst, src = step
            if dst != src:
                cluster[dst].pull_from(cluster[src])
    # Deterministic closing schedule so both clusters fully converge.
    for _round in range(N_NODES + 1):
        for dst in range(N_NODES):
            for src in range(N_NODES):
                if dst != src:
                    cluster[dst].pull_from(cluster[src])
    return cluster


@settings(max_examples=50, deadline=None)
@given(programs, limits)
def test_delta_mode_is_state_equivalent(program, limit):
    plain = run([EpidemicNode(k, N_NODES, ITEMS) for k in range(N_NODES)], program)
    delta = run(
        [DeltaEpidemicNode(k, N_NODES, ITEMS, history_limit=limit) for k in range(N_NODES)],
        program,
    )
    for p_node, d_node in zip(plain, delta):
        assert p_node.state_fingerprint() == d_node.state_fingerprint()
        assert p_node.dbvv == d_node.dbvv
        for name in ITEMS:
            assert p_node.store[name].ivv == d_node.store[name].ivv
        d_node.check_invariants()


@settings(max_examples=30, deadline=None)
@given(programs)
def test_zero_history_limit_always_falls_back_and_still_converges(program):
    cluster = run(
        [CountingDeltaNode(k, N_NODES, ITEMS, history_limit=0) for k in range(N_NODES)],
        program,
    )
    reference = cluster[0].state_fingerprint()
    for node in cluster[1:]:
        assert node.state_fingerprint() == reference
    # With no history, every shipped payload was a whole-value copy.
    assert all(node.deltas_shipped == 0 for node in cluster)
