"""Soak test: everything at once, for a long time, invariants always.

One seeded scenario driver mixes every feature the library has —
single-writer updates, reads, scheduled anti-entropy, out-of-bound
fetches, node crashes and recoveries — over hundreds of steps,
checking the cross-structure invariants as it goes and requiring exact
ground-truth convergence at the end.

This is the test that catches interaction bugs no focused unit test
will: an auxiliary log surviving a crash interleaved with an
out-of-bound fetch, a coverage edge recorded through a partition, and
so on.
"""

import random

import pytest

from repro.core.protocol import DBVVProtocolNode, DeltaProtocolNode
from repro.cluster.network import SimulatedNetwork
from repro.experiments.common import make_items
from repro.obs import OverheadCounters
from repro.substrate.operations import Append

ITEMS = make_items(25)
STEPS = 400


def run_soak(protocol_class, seed: int) -> None:
    rng = random.Random(seed)
    n = 4
    network = SimulatedNetwork(n, counters=OverheadCounters())
    nodes = [protocol_class(k, n, ITEMS) for k in range(n)]
    truth = {name: b"" for name in ITEMS}
    counter = 0
    down: set[int] = set()

    for step in range(STEPS):
        roll = rng.random()
        if roll < 0.35:
            # A single-writer update at the item's owner (if up).
            item_idx = rng.randrange(len(ITEMS))
            node_id = item_idx % n
            if node_id not in down:
                counter += 1
                op = Append(f"{counter};".encode())
                nodes[node_id].user_update(ITEMS[item_idx], op)
                truth[ITEMS[item_idx]] = op.apply(truth[ITEMS[item_idx]])
        elif roll < 0.70:
            # Anti-entropy pull between random distinct nodes.
            dst = rng.randrange(len(nodes))
            src = rng.randrange(len(nodes))
            if dst != src and dst not in down:
                nodes[dst].sync_with(nodes[src], network)
        elif roll < 0.80:
            # Out-of-bound fetch of a random item.
            dst = rng.randrange(len(nodes))
            src = rng.randrange(len(nodes))
            if dst != src and dst not in down and src not in down:
                nodes[dst].fetch_out_of_bound(
                    ITEMS[rng.randrange(len(ITEMS))], nodes[src], network
                )
        elif roll < 0.88:
            # A user read (never crashes, value is some prefix of truth).
            node_id = rng.randrange(len(nodes))
            if node_id not in down:
                item = ITEMS[rng.randrange(len(ITEMS))]
                value = nodes[node_id].read(item)
                assert truth[item].startswith(value), (
                    f"step {step}: node {node_id} read a value that is "
                    f"not a prefix of the single-writer history for {item}"
                )
        elif roll < 0.94:
            # Crash or recover a random node (never all of them).
            node_id = rng.randrange(len(nodes))
            if node_id in down:
                down.discard(node_id)
                network.set_up(node_id)
            elif len(down) < len(nodes) - 2:
                down.add(node_id)
                network.set_down(node_id)

        if step % 50 == 49:
            for node_id, node in enumerate(nodes):
                if node_id not in down:
                    node.check_invariants()

    # Quiesce: recover everyone, run full-mesh rounds to convergence.
    for node_id in list(down):
        network.set_up(node_id)
    for _round in range(4 * len(nodes)):
        for dst in range(len(nodes)):
            for src in range(len(nodes)):
                if dst != src:
                    nodes[dst].sync_with(nodes[src], network)

    for node in nodes:
        node.check_invariants()
        assert node.conflict_count() == 0, "single-writer soak must be conflict-free"
        snapshot = node.state_fingerprint()
        for item, expected in truth.items():
            assert snapshot[item] == expected, (
                f"{type(node).__name__} node {node.node_id} diverged on {item}"
            )


@pytest.mark.parametrize("seed", [101, 202, 303, 606])
def test_soak_whole_value_mode(seed):
    run_soak(DBVVProtocolNode, seed)


@pytest.mark.parametrize("seed", [404, 505])
def test_soak_delta_mode(seed):
    run_soak(DeltaProtocolNode, seed)
