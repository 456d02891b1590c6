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
   old one: ``V_il += v_jl(x) - v_il(x)`` for every ``l``.

Rule 3 is the reason a single O(n) vector can stand in for per-item state:
copying a *newer* item copy adds a non-negative delta per origin, keeping
the DBVV equal to the IVV column sums at all times.  Out-of-bound copies
deliberately bypass these rules (paper section 5.2) — that is what the
auxiliary structures exist to make safe.
"""

from __future__ import annotations

import operator
from array import array

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

    def record_local_update(self) -> None:
        """Rule 2 requires the node id; nodes call
        :meth:`record_local_update_by` — kept separate so misuse is loud.
        """
        raise TypeError(
            "use record_local_update_by(node) — a DBVV does not know its owner"
        )

    def record_local_update_by(self, node: int) -> None:
        """Rule 2: ``V_ii += 1`` when node ``i`` updates any regular item."""
        self.increment(node)

    def absorb_item_copy(
        self,
        old_ivv: VersionVector,
        new_ivv: VersionVector,
        counters: OverheadCounters = NULL_COUNTERS,
    ) -> None:
        """Rule 3: account for replacing an item copy with a newer one.

        ``old_ivv`` is the IVV of the copy being replaced, ``new_ivv`` the
        IVV of the adopted copy.  The protocol only copies when
        ``new_ivv`` dominates ``old_ivv``, so every per-component delta is
        non-negative; a negative delta means the caller broke that
        precondition and we fail fast rather than corrupt the DBVV.
        """
        old_counts = old_ivv._counts
        new_counts = new_ivv._counts
        if counters is not NULL_COUNTERS:
            counters.vv_components_touched += len(old_counts)
        if new_counts is old_counts or new_counts == old_counts:
            return
        if any(map(operator.lt, new_counts, old_counts)):
            # Cold path: rerun per-component only to name the culprit.
            for l_idx, (old_count, new_count) in enumerate(
                zip(old_counts, new_counts)
            ):
                if new_count < old_count:
                    raise ValueError(
                        "absorb_item_copy called with a non-dominating "
                        f"new IVV (component {l_idx}: {new_count} < "
                        f"{old_count})"
                    )
        # One fused C-level pass: V_il += v_jl(x) - v_il(x) for every l.
        self._counts = array(
            "Q",
            map(
                operator.add,
                self._counts,
                map(operator.sub, new_counts, old_counts),
            ),
        )
        self._total = None
        self._hash = None
        self._tuple = None
