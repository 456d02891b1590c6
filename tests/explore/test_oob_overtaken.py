"""Regression: an out-of-bound copy overtaken by a pull is a conflict.

Plain ``dbvv``, 3 nodes, 1 item:

1. node 0 updates x;
2. node 1 pulls from node 0;
3. node 0 updates x again;
4. node 2 fetches x out-of-bound from node 1;
5. node 2 updates x — the update goes to its auxiliary copy and is
   logged with that copy's IVV (1, 0, 0) as its pre-IVV.

A later pull hands node 2 node 0's regular copy (2, 0, 0), which
dominates the record's pre-IVV yet lacks node 2's own update: the
histories have forked.  Intra-node replay used to return silently on a dominating
regular IVV, leaving node 2 on ``b"ac"`` with a stranded auxiliary
record and no declared conflict (C1 broken); it now declares the
conflict.
"""

from repro.explore import (
    ExplorationConfig,
    FetchOutOfBound,
    InvariantOracle,
    Originate,
    StartSession,
    build_world,
)
from repro.explore.engine import step
from repro.explore.minimize import replay_schedule
from repro.explore.world import ordered_pairs

CONFIG = ExplorationConfig(
    protocol="dbvv",
    n_nodes=3,
    items=("x0",),
    max_updates=3,
    max_faults=0,
    max_crashes=0,
    max_oob=1,
)

SCHEDULE = (
    Originate(0, "x0"),
    StartSession(1, 0),
    Originate(0, "x0"),
    FetchOutOfBound(2, "x0", 1),
    Originate(2, "x0"),
)


def test_the_schedule_satisfies_the_oracle():
    violation, consumed = replay_schedule(CONFIG, SCHEDULE, InvariantOracle())
    assert violation is None, violation.describe()
    assert consumed == len(SCHEDULE)


def test_anti_entropy_declares_the_conflict_at_node_2():
    world = build_world(CONFIG)
    oracle = InvariantOracle()
    for action in SCHEDULE:
        world, violation = step(world, action, oracle)
        assert violation is None
    for _round in range(3):
        for initiator, responder in ordered_pairs(CONFIG.n_nodes):
            world.nodes[initiator].sync_with(world.nodes[responder], world.network)
    assert [node.conflict_count() for node in world.nodes] == [0, 0, 1]
