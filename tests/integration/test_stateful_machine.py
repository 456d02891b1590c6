"""Hypothesis stateful testing: the protocol vs. a reference model.

A :class:`RuleBasedStateMachine` drives a 3-node DBVV cluster with the
full rule set — conflict-free updates, pulls, out-of-bound fetches,
crashes/recoveries — while maintaining a trivially correct reference
model (the per-item single-writer history plus, per node, which prefix
of each item's history that node's *user-visible* value must match).
Hypothesis explores rule sequences adversarially and shrinks failures
to minimal scripts, which unit tests with hand-picked scenarios cannot
do.

Checked after every rule (as class invariants):

* every node's user-visible value of every item is a prefix of that
  item's history (no invented, reordered, or rolled-back data);
* protocol structural invariants hold on every live node;
* no conflicts are ever reported.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.cluster.network import SimulatedNetwork
from repro.core.protocol import DBVVProtocolNode
from repro.obs import OverheadCounters
from repro.substrate.operations import Append

N_NODES = 3
ITEMS = [f"item-{k}" for k in range(3)]

node_ids = st.integers(min_value=0, max_value=N_NODES - 1)
item_ids = st.integers(min_value=0, max_value=len(ITEMS) - 1)


class EpidemicMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.network = SimulatedNetwork(N_NODES, counters=OverheadCounters())
        self.nodes = [DBVVProtocolNode(k, N_NODES, ITEMS) for k in range(N_NODES)]
        self.history = {item: b"" for item in ITEMS}
        self.counter = 0
        self.down: set[int] = set()

    # -- rules -----------------------------------------------------------

    @rule(item_idx=item_ids)
    def update(self, item_idx):
        node_id = item_idx % N_NODES  # static single writer
        if node_id in self.down:
            return
        self.counter += 1
        op = Append(f"{self.counter};".encode())
        self.nodes[node_id].user_update(ITEMS[item_idx], op)
        self.history[ITEMS[item_idx]] = op.apply(self.history[ITEMS[item_idx]])

    @rule(dst=node_ids, src=node_ids)
    def pull(self, dst, src):
        if dst == src or dst in self.down:
            return
        self.nodes[dst].sync_with(self.nodes[src], self.network)

    @rule(dst=node_ids, src=node_ids, item_idx=item_ids)
    def out_of_bound(self, dst, src, item_idx):
        if dst == src or dst in self.down or src in self.down:
            return
        self.nodes[dst].fetch_out_of_bound(
            ITEMS[item_idx], self.nodes[src], self.network
        )

    @rule(node_id=node_ids)
    def crash_or_recover(self, node_id):
        if node_id in self.down:
            self.down.discard(node_id)
            self.network.set_up(node_id)
        elif len(self.down) < N_NODES - 1:
            self.down.add(node_id)
            self.network.set_down(node_id)

    # -- invariants -----------------------------------------------------------

    @invariant()
    def values_are_history_prefixes(self):
        if not hasattr(self, "nodes"):
            return
        for node in self.nodes:
            for item in ITEMS:
                value = node.read(item)
                assert self.history[item].startswith(value), (
                    f"node {node.node_id} shows a non-prefix value for {item}"
                )

    @invariant()
    def structural_invariants_hold(self):
        if not hasattr(self, "nodes"):
            return
        for node in self.nodes:
            node.check_invariants()

    @invariant()
    def no_conflicts_ever(self):
        if not hasattr(self, "nodes"):
            return
        assert all(node.conflict_count() == 0 for node in self.nodes)

    def teardown(self):
        if not hasattr(self, "nodes"):
            return
        # Quiesce: everyone recovers, full-mesh rounds converge all.
        for node_id in list(self.down):
            self.network.set_up(node_id)
        for _round in range(N_NODES + 2):
            for dst in range(N_NODES):
                for src in range(N_NODES):
                    if dst != src:
                        self.nodes[dst].sync_with(self.nodes[src], self.network)
        for node in self.nodes:
            for item, expected in self.history.items():
                assert node.read(item) == expected, (
                    f"node {node.node_id} failed to converge on {item}"
                )


TestEpidemicMachine = EpidemicMachine.TestCase
TestEpidemicMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
