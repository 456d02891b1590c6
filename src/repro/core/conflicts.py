"""Conflict detection and reporting.

The paper's protocol *detects* inconsistent replicas (correctness
criterion 1) and alerts the administrator; resolution is explicitly
application-specific (paper section 2).  This module provides the
reporting seam: the node hands every detected conflict to its
:class:`ConflictReporter`, which records it.  Detection never raises —
a conflict leaves the item frozen (``in_conflict``) until the
application resolves it.

The paper's Fig. 4 footnote observes that the conflicting *nodes* can be
pinpointed from the two version vectors: if they conflict in components
``k`` and ``l``, then servers ``k`` and ``l`` hold inconsistent replicas.
:func:`pinpoint_conflicting_origins` implements that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.version_vector import VersionVector

__all__ = [
    "ConflictSite",
    "ConflictReport",
    "ConflictReporter",
    "pinpoint_conflicting_origins",
]


class ConflictSite(enum.Enum):
    """Which protocol step detected the conflict."""

    ACCEPT_PROPAGATION = "accept_propagation"
    INTRA_NODE = "intra_node_propagation"
    OUT_OF_BOUND = "out_of_bound"


@dataclass(frozen=True)
class ConflictReport:
    """One detected inconsistency between replicas of ``item``.

    ``local_vv`` / ``remote_vv`` are snapshots of the two concurrent
    vectors; ``origins`` are the server ids pinpointed as holding
    inconsistent replicas (paper Fig. 4 footnote 3).
    """

    item: str
    detected_by: int
    site: ConflictSite
    local_vv: tuple[int, ...]
    remote_vv: tuple[int, ...]
    origins: tuple[int, ...]

    def describe(self) -> str:
        return (
            f"item {self.item!r}: replicas with vectors {self.local_vv} and "
            f"{self.remote_vv} are inconsistent (detected by node "
            f"{self.detected_by} during {self.site.value}; offending "
            f"origins {self.origins})"
        )


def pinpoint_conflicting_origins(
    a: VersionVector, b: VersionVector
) -> tuple[int, ...]:
    """Server ids in whose components the two vectors conflict.

    Returns the origins ``k`` with ``a[k] > b[k]`` and ``l`` with
    ``a[l] < b[l]``; per the paper's footnote these servers hold
    inconsistent replicas of the item.  Empty when the vectors do not
    actually conflict.
    """
    ahead = [k for k, (x, y) in enumerate(zip(a, b)) if x > y]
    behind = [k for k, (x, y) in enumerate(zip(a, b)) if x < y]
    if not ahead or not behind:
        return ()
    return tuple(sorted(ahead + behind))


@dataclass
class ConflictReporter:
    """Collects the :class:`ConflictReport` objects of one node."""

    reports: list[ConflictReport] = field(default_factory=list)

    def declare(
        self,
        item: str,
        detected_by: int,
        site: ConflictSite,
        local_vv: VersionVector,
        remote_vv: VersionVector,
    ) -> ConflictReport:
        """Record a conflict."""
        report = ConflictReport(
            item=item,
            detected_by=detected_by,
            site=site,
            local_vv=local_vv.as_tuple(),
            remote_vv=remote_vv.as_tuple(),
            origins=pinpoint_conflicting_origins(local_vv, remote_vv),
        )
        self.reports.append(report)
        return report

    def conflicts_for(self, item: str) -> list[ConflictReport]:
        """All recorded conflicts involving ``item``."""
        return [r for r in self.reports if r.item == item]

    @property
    def count(self) -> int:
        return len(self.reports)

    def clear(self) -> None:
        self.reports.clear()
