"""Deterministic cluster simulation.

* :mod:`repro.cluster.events` — discrete-event engine.
* :mod:`repro.cluster.network` — crash/partition/loss-aware transport
  with traffic accounting; it holds at most one active loss
  ``(rate, rng)``.
* :mod:`repro.cluster.scheduler` — peer-selection policies (random,
  ring, star, arbitrary topology).
* :mod:`repro.cluster.failures` — declarative failure plans, including
  the mid-push crash used by experiment E5 and lossy windows, each
  with its own RNG (the plan sets the network's loss every round).
* :mod:`repro.cluster.convergence` — convergence checks and ground-truth
  staleness tracking.
* :mod:`repro.cluster.simulation` — the round-based driver that runs any
  protocol under identical conditions.
"""

from repro.cluster.convergence import (
    GroundTruth,
    StalenessSample,
    fingerprints_equal,
)
from repro.cluster.event_sim import EventDrivenSimulation, NodeSchedule
from repro.cluster.events import EventLoop
from repro.cluster.failures import (
    Crash,
    FailurePlan,
    HealEvent,
    PartitionEvent,
    Recover,
)
from repro.cluster.network import SimulatedNetwork
from repro.cluster.scheduler import (
    PeerSelector,
    RandomSelector,
    RingSelector,
    StarSelector,
    TopologySelector,
)
from repro.cluster.simulation import ClusterSimulation, RoundStats

__all__ = [
    "GroundTruth",
    "StalenessSample",
    "fingerprints_equal",
    "EventDrivenSimulation",
    "NodeSchedule",
    "EventLoop",
    "Crash",
    "FailurePlan",
    "HealEvent",
    "PartitionEvent",
    "Recover",
    "SimulatedNetwork",
    "PeerSelector",
    "RandomSelector",
    "RingSelector",
    "StarSelector",
    "TopologySelector",
    "ClusterSimulation",
    "RoundStats",
]
