"""What the protocol replicates, and the clock it runs on.

The paper assumes "a collection of networked servers that keep
databases, which are collections of data items" (section 2); the
protocol needs only two things from that world: re-doable update
operations (:mod:`~repro.substrate.operations`), which the auxiliary
log replays and the operation-shipping mode ships, and the simulated
clock (:mod:`~repro.substrate.clock`) the event engine advances.
"""

from repro.substrate.operations import (
    Append,
    BytePatch,
    CounterAdd,
    Put,
    Truncate,
    UpdateOperation,
)

__all__ = [
    "Append",
    "BytePatch",
    "CounterAdd",
    "Put",
    "Truncate",
    "UpdateOperation",
]
