"""Regenerate the golden checkpoint file.

Run from the repo root, only after a deliberate change of the
checkpoint format::

    PYTHONPATH=src python tests/wire/golden/_regen_checkpoint.py

``node()`` builds the same seeded node on every run: node 0 of two,
with records in both log components (its own updates, re-added items
among them, and a tail pulled from node 1), one item frozen by a
conflict, and one auxiliary copy with a pending auxiliary-log record.
``checkpoint.hex`` holds ``encode_checkpoint(LSN, node())`` exactly as
it was written when the file was last regenerated.
``tests/wire/test_golden.py`` encodes the node again and must get the
pinned bytes, and loads the pinned bytes back to the same node; the
explorer keys a state on these bytes, so they also guard its counts.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.core.node import EpidemicNode
from repro.durable.checkpoint import encode_checkpoint
from repro.substrate.operations import Append, Put, Truncate

GOLDEN = Path(__file__).parent / "checkpoint.hex"

ITEMS = tuple(f"k{index:02d}" for index in range(12))
LSN = 7

_SEED = 20261021


def _update(node: EpidemicNode, item: str, rng: random.Random) -> None:
    kind = rng.randrange(3)
    if kind == 0:
        op = Put(rng.randbytes(rng.choice((0, 1, 5, 130))))
    elif kind == 1:
        op = Append(rng.randbytes(rng.choice((1, 3))))
    else:
        op = Truncate(0)
    node.update(item, op)


def node() -> EpidemicNode:
    """The golden node: node 0 of a two-node cluster."""
    rng = random.Random(_SEED)
    a = EpidemicNode(0, 2, ITEMS)
    b = EpidemicNode(1, 2, ITEMS)
    for _step in range(20):
        _update(a, rng.choice(ITEMS[:6]), rng)
    for _step in range(10):
        _update(b, rng.choice(ITEMS[6:10]), rng)
    a.pull_from(b)
    # k10: written on both sides, then pulled — frozen at node 0.
    a.update("k10", Put(b"mine"))
    b.update("k10", Put(b"theirs"))
    b.update("k08", Append(b"!"))
    a.pull_from(b)
    # k11: fetched out of bound from node 1, then written on top.
    b.update("k11", Put(b"fetched"))
    a.copy_out_of_bound("k11", b)
    a.update("k11", Append(b"+local"))
    for _step in range(5):
        _update(a, rng.choice(ITEMS[:6]), rng)
    return a


def encode() -> bytes:
    """The golden node's checkpoint, covering WAL records up to ``LSN``."""
    return bytes(encode_checkpoint(LSN, node()))


def main() -> None:
    GOLDEN.write_text(encode().hex() + "\n")
    print(f"{GOLDEN.name}: {GOLDEN.stat().st_size} byte(s)")


if __name__ == "__main__":
    main()
