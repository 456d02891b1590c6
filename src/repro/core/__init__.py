"""The paper's protocol: data structures (section 4) and procedures
(section 5).

Module map (paper cross-reference):

* :mod:`repro.core.version_vector` — section 3 (background: IVVs).
* :mod:`repro.core.dbvv` — section 4.1 (database version vectors).
* :mod:`repro.core.log_vector` — section 4.2 and Fig. 1 (the log vector).
* :mod:`repro.core.auxiliary` — sections 4.3–4.4 (auxiliary copies/log).
* :mod:`repro.core.items` — item replicas, IVVs, IsSelected flags.
* :mod:`repro.core.messages` — the wire messages with size accounting.
* :mod:`repro.core.node` — section 5 and Figs. 2–4 (the protocol).
* :mod:`repro.core.conflicts` — conflict detection/reporting seam.
"""

from repro.core.auxiliary import AuxiliaryLog, AuxLogRecord
from repro.core.delta import DeltaEpidemicNode, DeltaPayload, OpChainEntry, OpHistory
from repro.core.conflicts import (
    ConflictReport,
    ConflictReporter,
    ConflictSite,
)
from repro.core.dbvv import DatabaseVersionVector
from repro.core.items import DataItem, ItemStore
from repro.core.log_vector import LogComponent, LogVector
from repro.core.messages import (
    ItemPayload,
    OutOfBoundReply,
    OutOfBoundRequest,
    PropagationReply,
    PropagationRequest,
    YouAreCurrent,
)
from repro.core.node import AcceptOutcome, EpidemicNode, IntraNodeOutcome
from repro.core.version_vector import Ordering, VersionVector

__all__ = [
    "AuxiliaryLog",
    "AuxLogRecord",
    "DeltaEpidemicNode",
    "DeltaPayload",
    "OpChainEntry",
    "OpHistory",
    "ConflictReport",
    "ConflictReporter",
    "ConflictSite",
    "DatabaseVersionVector",
    "DataItem",
    "ItemStore",
    "LogComponent",
    "LogVector",
    "ItemPayload",
    "OutOfBoundReply",
    "OutOfBoundRequest",
    "PropagationReply",
    "PropagationRequest",
    "YouAreCurrent",
    "AcceptOutcome",
    "EpidemicNode",
    "IntraNodeOutcome",
    "Ordering",
    "VersionVector",
]
