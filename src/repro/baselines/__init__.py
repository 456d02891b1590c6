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

All five are written on :mod:`repro.baselines.replica`: one value store
(:class:`~repro.baselines.replica.ValueStoreNode`, a
:class:`repro.interfaces.ProtocolNode`, so any of them drops into
:class:`repro.cluster.simulation.ClusterSimulation`), one
last-writer-wins record (:class:`~repro.baselines.replica.LWWRecord`)
and one LWW rule (:class:`~repro.baselines.replica.LWWNode`).  Each
baseline keeps only its own metadata and its ``exchange``.
"""

from repro.baselines.agrawal_malpani import AgrawalMalpaniNode
from repro.baselines.lotus import LotusNode
from repro.baselines.oracle import OraclePushNode
from repro.baselines.per_item import PerItemVVNode
from repro.baselines.replica import LWWRecord
from repro.baselines.wuu_bernstein import WuuBernsteinNode

__all__ = [
    "AgrawalMalpaniNode",
    "LotusNode",
    "OraclePushNode",
    "PerItemVVNode",
    "WuuBernsteinNode",
    "LWWRecord",
]
