"""Bounded exhaustive protocol exploration (stateless model checking).

The random simulations in :mod:`repro.cluster` sample schedules; this
package *enumerates* them.  A :class:`~repro.explore.world.ProtocolWorld`
reifies every nondeterminism point of the cluster simulator — who
originates an update, which pair runs an anti-entropy session, whether a
message is delivered or dropped, whether a participant crashes between
two messages of a session, when a crashed node recovers, and who fetches
an item out of bound — as explicit :mod:`~repro.explore.actions`.  The
:class:`~repro.explore.engine.Explorer` then drives every reachable
schedule of bounded length through the protocol, checking the invariant
oracle (:mod:`~repro.explore.oracle`) at every state:

* the per-node cross-structure invariants (DBVV = IVV column sums, the
  one-record-per-item P(x) rule, log seqnos bounded by the DBVV);
* the n·N log bound (paper Theorem 2);
* monotonicity of every version vector along every transition (C2:
  a replica never adopts a non-dominating copy);
* eventual convergence on quiescent suffixes — from every reachable
  conflict-free state, a deterministic closure of anti-entropy sessions
  must reach identical replicas (criterion C3);
* optionally, differential agreement between protocols driven through
  the same schedule (``dbvv`` vs ``per-item-vv`` vs ``wuu-bernstein``).

The protocols come from the experiments' table,
:data:`repro.experiments.common.PROTOCOLS`; a protocol is explorable
when its class overrides ``ProtocolNode.exploration_key``
(:data:`~repro.explore.world.EXPLORABLE_PROTOCOLS`), and its class
also says whether it offers out-of-bound fetches
(``fetch_out_of_bound``) and whether the differential oracle may
demand causal values of it (``causal_values``).

State explosion is contained by three mechanisms: budgets on updates,
faults, crashes and out-of-bound fetches; revisited-state pruning via
full protocol-state keys (``exploration_key()``: the DBVV checkpoint
format doubles as the hash preimage);
and a sleep-set partial-order reduction exploiting commutativity of
actions with disjoint node footprints (sessions between disjoint pairs,
updates at uninvolved nodes).

A violation is shrunk by :mod:`~repro.explore.minimize` to a minimal
action trace and serialized as a replayable JSON file::

    python -m repro.explore --nodes 3 --items 3 --depth 4
    python -m repro.explore --replay trace.json

See ``docs/PROTOCOL.md`` section 11 for the action alphabet, the
state-hash contract and the oracle catalogue.
"""

from __future__ import annotations

from repro.explore.actions import (
    Action,
    Crash,
    FetchOutOfBound,
    Originate,
    Recover,
    SessionFault,
    StartSession,
    action_from_json,
)
from repro.explore.engine import ExplorationStats, Explorer, ExplorationResult
from repro.explore.minimize import minimize_schedule
from repro.explore.oracle import InvariantOracle, OracleViolation
from repro.explore.trace import Trace, load_trace, replay_trace, save_trace
from repro.explore.world import (
    EXPLORABLE_PROTOCOLS,
    DifferentialWorld,
    ExplorationConfig,
    ProtocolWorld,
    build_world,
)

__all__ = [
    "Action",
    "Crash",
    "DifferentialWorld",
    "EXPLORABLE_PROTOCOLS",
    "ExplorationConfig",
    "ExplorationResult",
    "ExplorationStats",
    "Explorer",
    "FetchOutOfBound",
    "InvariantOracle",
    "OracleViolation",
    "Originate",
    "ProtocolWorld",
    "Recover",
    "SessionFault",
    "StartSession",
    "Trace",
    "action_from_json",
    "build_world",
    "load_trace",
    "minimize_schedule",
    "replay_trace",
    "save_trace",
]
