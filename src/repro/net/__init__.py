"""Networked deployment of the epidemic protocol (asyncio, TCP).

The simulator (:mod:`repro.cluster`) models the paper's system; this
package *runs* it: one OS process per replica, anti-entropy sessions as
:mod:`repro.wire` frames over TCP, a small JSON client API, and a
multi-process parity harness that holds the deployment to the
simulator's answers (see :mod:`repro.net.harness`).

Layout — each module is one layer, pure protocol logic excluded (that
stays in :mod:`repro.core`, shared with the simulator):

* :mod:`~repro.net.config` — the static seed-list deployment model;
* :mod:`~repro.net.framing` — async length-prefixed framing and the
  connection preamble;
* :mod:`~repro.net.node` — the asyncio replica process (peer service,
  outbound sessions, client API, anti-entropy scheduler);
* :mod:`~repro.net.tasks` — tracked task spawning and cancellation
  (the R11/R12 concurrency discipline primitives);
* :mod:`~repro.net.client` — blocking client for the JSON API;
* :mod:`~repro.net.harness` — spawn/reap localhost clusters and run
  differential parity against ``ClusterSimulation``;
* ``python -m repro.net`` — the CLI entry point.
"""

from __future__ import annotations

from repro.net.client import NodeClient
from repro.net.config import NodeConfig, PeerAddress, parse_peer, parse_peers
from repro.net.node import NetNode
from repro.net.tasks import TaskTracker, cancel_and_wait, spawn

__all__ = [
    "NetNode",
    "NodeClient",
    "NodeConfig",
    "PeerAddress",
    "TaskTracker",
    "cancel_and_wait",
    "parse_peer",
    "parse_peers",
    "spawn",
]
