"""A real-sized node survives ``copy.deepcopy`` and ``pickle``.

The explorer deep-copies whole worlds.  A log kept as a chain of linked
record objects made both copies recurse once per record, so a node
whose log held a few hundred records raised ``RecursionError``.
"""

import copy
import pickle

from repro.core.node import EpidemicNode
from repro.substrate.operations import Put

ITEMS = [f"item-{k:05d}" for k in range(10_000)]


def _big_node() -> EpidemicNode:
    source = EpidemicNode(1, 2, ITEMS)
    for name in ITEMS:
        source.update(name, Put(name.encode()))
    node = EpidemicNode(0, 2, ITEMS)
    node.pull_from(source)
    for name in ITEMS[::2]:
        node.update(name, Put(b"local"))
    return node


def _log_pairs(node: EpidemicNode) -> list[list[tuple[str, int]]]:
    return [node.log[origin].pairs() for origin in range(node.n_nodes)]


def test_deepcopy_and_pickle_of_a_10k_item_node():
    node = _big_node()
    assert len(node.log) == 15_000
    for clone in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert clone.content_digest == node.content_digest
        assert _log_pairs(clone) == _log_pairs(node)
        clone.check_invariants()
