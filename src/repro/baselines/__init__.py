"""The comparison protocols from the paper's related-work analysis.

* :mod:`repro.baselines.per_item` — classic per-item version-vector
  anti-entropy (Locus/Ficus style; paper sections 1, 8.3).
* :mod:`repro.baselines.lotus` — Lotus Notes sequence numbers and
  last-propagation times, including its conflict-handling bug
  (paper section 8.1).
* :mod:`repro.baselines.oracle` — Oracle Symmetric Replication-style
  deferred push without forwarding (paper section 8.2).
* :mod:`repro.baselines.wuu_bernstein` — Wuu & Bernstein time-table
  gossip (paper section 8.3).
* :mod:`repro.baselines.agrawal_malpani` — decoupled log pushes with
  vector-exchange repair (paper section 8.3).

All implement :class:`repro.interfaces.ProtocolNode`, so any of them
drops into :class:`repro.cluster.simulation.ClusterSimulation`.
"""

from repro.baselines.agrawal_malpani import AgrawalMalpaniNode, AMRecord
from repro.baselines.lotus import LotusNode
from repro.baselines.oracle import OraclePushNode, UpdateRecord
from repro.baselines.per_item import PerItemVVNode
from repro.baselines.wuu_bernstein import GossipRecord, WuuBernsteinNode

__all__ = [
    "AgrawalMalpaniNode",
    "AMRecord",
    "LotusNode",
    "OraclePushNode",
    "UpdateRecord",
    "PerItemVVNode",
    "GossipRecord",
    "WuuBernsteinNode",
]
