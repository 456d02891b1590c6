"""Reproducible workloads: generators and traces.

Generators (:mod:`repro.workload.generators`) produce seeded update
streams with tunable skew — hot/cold, single-writer, deliberately
conflicting, and a read/write mix; traces
(:mod:`repro.workload.traces`) freeze a stream so every protocol in a
comparison replays the identical history.
"""

from repro.workload.generators import (
    ConflictingWorkload,
    HotColdWorkload,
    ReadEvent,
    ReadWriteMix,
    SingleWriterWorkload,
    UpdateEvent,
    WorkloadGenerator,
)
from repro.workload.traces import Trace

__all__ = [
    "ConflictingWorkload",
    "HotColdWorkload",
    "ReadEvent",
    "ReadWriteMix",
    "SingleWriterWorkload",
    "UpdateEvent",
    "WorkloadGenerator",
    "Trace",
]
