"""Scalable update propagation in epidemic replicated databases.

A full reproduction of Rabinovich, Gehani & Kononov (EDBT 1996): an
epidemic replication protocol whose anti-entropy overhead is constant
when two whole-database replicas are identical and linear in the number
of items actually copied otherwise — instead of linear in the total
number of items, as in classic per-item anti-entropy, Lotus Notes, or
gossip-log protocols.

Public surface (see each subpackage for details):

* :mod:`repro.core` — the paper's protocol: version vectors, database
  version vectors, the bounded log vector, the epidemic node with
  SendPropagation / AcceptPropagation / IntraNodePropagation and
  out-of-bound copying.
* :mod:`repro.substrate` — what the protocol replicates: re-doable
  update operations, and the simulated clock.
* :mod:`repro.durable` — write-ahead log, binary checkpoint and
  recovery for a node that must survive its process.
* :mod:`repro.cluster` — deterministic discrete-event cluster
  simulation: network, schedulers, failure injection, convergence
  checking.
* :mod:`repro.baselines` — the comparison protocols the paper discusses:
  per-item version-vector anti-entropy, Lotus Notes, Oracle Symmetric
  Replication push, Wuu–Bernstein gossip, and Agrawal–Malpani
  decoupled dissemination.
* :mod:`repro.analysis` — automated paper-claim verdicts: exact laws
  for the work counters, a least-squares fit for convergence rounds.
* :mod:`repro.workload` — reproducible workload generators and traces.
* :mod:`repro.obs` — the overhead counters (below :mod:`repro.core`).
* :mod:`repro.metrics` — staleness tracking, summaries, report tables.
* :mod:`repro.experiments` — one harness per paper claim (E1–E9), shared
  by the benchmark suite and the examples.

Quickstart::

    from repro.core import EpidemicNode
    from repro.substrate.operations import Put

    items = [f"item-{k}" for k in range(100)]
    a = EpidemicNode(0, 2, items)
    b = EpidemicNode(1, 2, items)
    a.update("item-7", Put(b"hello"))
    b.pull_from(a)                      # one anti-entropy exchange
    assert b.read("item-7") == b"hello"
"""

from repro.core.node import EpidemicNode
from repro.core.version_vector import Ordering, VersionVector
from repro.errors import ReplicationError

__version__ = "1.0.0"

__all__ = ["EpidemicNode", "VersionVector", "Ordering", "ReplicationError", "__version__"]
