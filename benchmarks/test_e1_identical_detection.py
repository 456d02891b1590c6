"""E1 bench — identical-replica detection: O(1) vs O(N).

Regenerates the E1 table (operation counts) and corroborates with
wall-clock timings of the measured session at small and large N.
"""

import pytest

from repro.cluster.network import SimulatedNetwork
from repro.experiments import e1_identical_detection as e1
from repro.experiments.common import make_items, protocol_class
from repro.substrate.operations import Put

LINK = SimulatedNetwork(3)


def build_triangle(protocol: str, n_items: int, updates: int = 20):
    """The E1 setup: node 2 and node 0 identical via indirect copy."""
    items = make_items(n_items)
    cls = protocol_class(protocol)
    nodes = [cls(k, 3, items) for k in range(3)]
    for idx, item in enumerate(items[:updates]):
        nodes[0].user_update(item, Put(f"v{idx}".encode()))
    nodes[1].sync_with(nodes[0], LINK)
    nodes[2].sync_with(nodes[1], LINK)
    return nodes


@pytest.mark.parametrize("n_items", [100, 10_000])
def test_bench_dbvv_identical_session(benchmark, n_items):
    nodes = build_triangle("dbvv", n_items)
    benchmark(lambda: nodes[2].sync_with(nodes[0], LINK))


@pytest.mark.parametrize("n_items", [100, 10_000])
def test_bench_per_item_identical_session(benchmark, n_items):
    nodes = build_triangle("per-item-vv", n_items)
    benchmark(lambda: nodes[2].sync_with(nodes[0], LINK))


@pytest.mark.parametrize("n_items", [100, 10_000])
def test_bench_lotus_identical_session(benchmark, n_items):
    nodes = build_triangle("lotus", n_items)

    def session():
        # Reset the pair's last-propagation time so every iteration
        # reproduces the paper's condition (identical replicas, but the
        # source modified items since it last spoke to this recipient);
        # otherwise only the first iteration pays the redundant scan.
        nodes[0]._last_prop_to[2] = 0
        nodes[2].sync_with(nodes[0], LINK)

    benchmark(session)


def test_regenerate_e1_table(benchmark):
    """Print the paper-claim table and assert its headline shape."""
    rows = benchmark.pedantic(e1.run, rounds=1, iterations=1)
    e1.report(rows).print()
    dbvv = [r for r in rows if r.protocol == "dbvv"]
    assert len({r.work for r in dbvv}) == 1, "dbvv must be flat in N"
    per_item = {r.n_items: r.work for r in rows if r.protocol == "per-item-vv"}
    sizes = sorted(per_item)
    growth = per_item[sizes[-1]] / per_item[sizes[0]]
    size_ratio = sizes[-1] / sizes[0]
    assert growth > size_ratio / 2, "per-item work must grow ~linearly in N"
