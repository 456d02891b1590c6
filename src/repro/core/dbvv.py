"""Database version vectors (paper section 4.1).

A DBVV is a version vector attached to an entire database replica.  Its
``l``-th component counts the updates originated at server ``l`` that are
reflected *anywhere* in the replica — equivalently, the sum of the
``l``-th components of all regular item IVVs (the invariant our property
tests assert).

Maintenance rules (paper section 4.1):

1. Initially all components are 0.
2. A local update to any (regular) item increments the node's own
   component: ``V_ii += 1``.
3. When item ``x`` is copied from node ``j`` during update propagation,
   each component grows by the updates the new copy has seen beyond the
   old one: ``V_il += v_jl(x) - v_il(x)`` for every ``l`` — applied once
   per session as the sum of the per-item deltas.

Rule 3 is the reason a single O(n) vector can stand in for per-item state:
copying a *newer* item copy adds a non-negative delta per origin, keeping
the DBVV equal to the IVV column sums at all times.  Out-of-bound copies
deliberately bypass these rules (paper section 5.2) — that is what the
auxiliary structures exist to make safe.
"""

from __future__ import annotations

import operator
from array import array
from typing import Sequence

from repro.core.version_vector import VersionVector
from repro.obs import NULL_COUNTERS, OverheadCounters

__all__ = ["DatabaseVersionVector"]


class DatabaseVersionVector(VersionVector):
    """A :class:`~repro.core.version_vector.VersionVector` with the DBVV
    maintenance rules as named operations.

    Inherits the full comparison algebra — ``dominates_or_equal`` against
    another node's DBVV is the paper's O(1) "is propagation needed at
    all?" test.
    """

    __slots__ = ()

    def record_local_update_by(self, node: int) -> None:
        """Rule 2: ``V_ii += 1`` when node ``i`` updates any regular item."""
        self.increment(node)

    def absorb_item_copy(
        self,
        old_ivv: VersionVector,
        new_ivv: VersionVector,
        counters: OverheadCounters = NULL_COUNTERS,
    ) -> None:
        """Rule 3 for one replaced copy: the one-pair call of
        :meth:`absorb_item_copies`, which holds the rule's only body."""
        self.absorb_item_copies((old_ivv,), (new_ivv,), counters)

    def absorb_item_copies(
        self,
        old_ivvs: Sequence[VersionVector],
        new_ivvs: Sequence[VersionVector],
        counters: OverheadCounters = NULL_COUNTERS,
    ) -> None:
        """Rule 3, applied once per session as the sum of the per-item
        deltas: ``V_il += sum_x (v_jl(x) - v_il(x))`` for every ``l``.

        ``old_ivvs[k]`` is the IVV of a copy being replaced,
        ``new_ivvs[k]`` the IVV of the copy adopted in its place.  The
        deltas commute, so the DBVV is rebuilt once, from the column
        sums.  The protocol only copies when the new IVV dominates the
        old, so every summed delta is non-negative; a negative one
        means the caller broke that and we fail fast, before anything
        is applied.  ``vv_components_touched`` is charged what the same
        pairs absorbed one by one would.
        """
        if counters is not NULL_COUNTERS:
            counters.vv_components_touched += len(self._counts) * len(new_ivvs)
        if not new_ivvs:
            return
        # Column sums at C speed: zip(*arrays) walks the vectors once.
        gained = map(sum, zip(*[vv._counts for vv in new_ivvs]))
        lost = map(sum, zip(*[vv._counts for vv in old_ivvs]))
        delta = list(map(operator.sub, gained, lost))
        if not any(delta):
            return
        if min(delta) < 0:
            l_idx = delta.index(min(delta))
            raise ValueError(
                "absorb_item_copies called with non-dominating new IVVs "
                f"(component {l_idx} would move by {delta[l_idx]})"
            )
        self._counts = array("Q", map(operator.add, self._counts, delta))
        self._total = None
        self._hash = None
        self._tuple = None
