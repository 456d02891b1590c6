"""Regression: a ``dbvv-delta`` op chain may repeat updates the recipient holds.

``dbvv-delta``, 2 nodes, items ``a`` and ``b``:

1. node 0 updates a (its update m = 1);
2. node 0 updates b (m = 2);
3. node 1 updates a — concurrent with node 0's;
4. node 1 pulls from node 0: ``a`` conflicts, ``b`` arrives as the
   chain [m = 2], and node 1's DBVV counts one update from node 0;
5. node 0 updates b again (m = 3);
6. node 1 pulls again: the chain is cut at node 1's DBVV entry 1, so
   it is [m = 2, m = 3], and its first entry is already in node 1's
   copy of ``b``.

The recipient used to apply both entries and raise ``DeltaChainError``
(IVV (3, 0) against the advertised (2, 0)); it now skips every entry
whose lineage position its IVV already counts.
"""

from repro.explore import (
    ExplorationConfig,
    InvariantOracle,
    Originate,
    StartSession,
    build_world,
)
from repro.explore.engine import Explorer, step
from repro.explore.minimize import replay_schedule

CONFIG = ExplorationConfig(
    protocol="dbvv-delta",
    n_nodes=2,
    items=("a", "b"),
    max_updates=4,
    max_faults=0,
    max_crashes=0,
    max_oob=0,
)

SCHEDULE = (
    Originate(0, "a"),
    Originate(0, "b"),
    Originate(1, "a"),
    StartSession(1, 0),
    Originate(0, "b"),
    StartSession(1, 0),
)


def test_the_schedule_satisfies_the_oracle():
    violation, consumed = replay_schedule(CONFIG, SCHEDULE, InvariantOracle())
    assert violation is None, violation.describe()
    assert consumed == len(SCHEDULE)


def test_the_second_pull_brings_b_up_to_node_0():
    world = build_world(CONFIG)
    oracle = InvariantOracle()
    for action in SCHEDULE:
        world, violation = step(world, action, oracle)
        assert violation is None
    sender, recipient = world.nodes
    assert recipient.fingerprint_value("b") == sender.fingerprint_value("b")
    assert recipient.conflict_count() == 1


def test_every_schedule_to_depth_6_is_clean():
    result = Explorer(CONFIG, depth=6).run()
    assert result.violation is None, result.violation.describe()
