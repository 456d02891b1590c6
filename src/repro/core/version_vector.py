"""Version vectors (paper section 3).

A version vector over a replica set ``{0, ..., n-1}`` records, in its
``j``-th component, how many updates originated at server ``j`` are
reflected in the state the vector describes.  The paper uses them at two
granularities: *item version vectors* (IVV, one per data item replica,
classic Parker et al. usage) and *database version vectors* (DBVV, one
per whole database replica, the paper's contribution — see
:mod:`repro.core.dbvv`).

The class below implements the vector algebra both need:

* per-origin increment (local update: ``v[i] += 1``),
* component-wise merge — the join of the vector lattice — used when a
  replica adopts a newer copy,
* the four-way comparison of Theorem 3's corollaries: equal, dominates,
  dominated, or concurrent (the paper's "inconsistent version vectors").

Vectors are mutable (nodes update them in place constantly) but expose
``copy()`` and value semantics for equality/hash-free comparison.  All
components are non-negative integers below 2**64 — a machine word, which
is what lets the backing store be a C-level ``array('Q')`` rather than a
list of boxed ints.  (The protocol itself never approaches the bound:
:mod:`repro.core.validate` caps trusted components at 2**48.)

The dense-array representation is a measured hot-path choice: every
anti-entropy probe compares whole vectors and every adoption merges
them, so ``merge_from``/``compare``/``dominates_or_equal`` lean on bulk
C-level operations (buffer equality, a fused ``map(max, ...)`` pass)
with an identical-object / equal-buffer O(1) short-circuit in front.
``total()`` and ``__hash__`` are cached and invalidated on mutation;
the run-time sanitizer cross-checks the cached total against a from-
scratch recomputation (:meth:`VersionVector.recompute_total`).
"""

from __future__ import annotations

import enum
import operator
import sys
from array import array
from typing import Iterable, Iterator, Sequence

from repro.errors import ReplicaSetMismatchError, UnknownNodeError

__all__ = [
    "Ordering",
    "VersionVector",
    "merge",
    "pack_vectors",
]

_U64_LIMIT = 1 << 64


class Ordering(enum.Enum):
    """Result of comparing two version vectors.

    ``EQUAL``      — component-wise identical; the replicas they describe
                     are identical (Theorem 3, corollary 1).
    ``DOMINATES``  — left >= right everywhere and > somewhere; the left
                     replica is strictly newer (corollary 3).
    ``DOMINATED`` — the mirror image: the left replica is strictly older.
    ``CONCURRENT`` — each side has seen updates the other missed; the
                     replicas are inconsistent / in conflict (corollary 4).
    """

    EQUAL = "equal"
    DOMINATES = "dominates"
    DOMINATED = "dominated"
    CONCURRENT = "concurrent"


def _as_component_array(counts: Sequence[int]) -> array[int]:
    """One validated pass from a component sequence to an ``array('Q')``.

    ``array`` rejects negative and >= 2**64 values at C speed with
    :class:`OverflowError`; only the failure path pays a Python scan to
    name the offending component in the pinned error message.
    """
    if isinstance(counts, (bytes, bytearray, memoryview)):
        # array('Q', <buffer>) would reinterpret raw machine words;
        # these are byte *sequences* here, one component per byte.
        counts = list(counts)
    try:
        return array("Q", counts)
    except OverflowError:
        for value in counts:
            if value < 0:
                raise ValueError(
                    f"negative version vector component: {value}"
                ) from None
        raise ValueError(
            "version vector component exceeds the 64-bit range"
        ) from None
    except TypeError:
        raise TypeError(
            "version vector components must be integers"
        ) from None


class VersionVector:
    """A dense version vector over a fixed replica set of size ``n``.

    The replica set is fixed for the lifetime of the database (paper
    section 2, final assumption), so a dense representation is both the
    simplest and the fastest choice; nodes are identified by their index
    ``0 <= j < n``.  Components live in an ``array('Q')`` — one machine
    word each, no per-component boxing — so whole-vector operations run
    as single C-level passes.
    """

    __slots__ = ("_counts", "_total", "_hash", "_tuple")

    def __init__(self, n_nodes: int = 0, counts: Sequence[int] | None = None):
        """Create a vector of ``n_nodes`` zero components, or adopt
        ``counts`` verbatim when given (``n_nodes`` is then ignored).
        """
        if counts is not None:
            self._counts = _as_component_array(counts)
        else:
            if n_nodes < 0:
                raise ValueError(f"negative replica set size: {n_nodes}")
            self._counts = array("Q", bytes(8 * n_nodes))
        self._total: int | None = None
        self._hash: int | None = None
        self._tuple: tuple[int, ...] | None = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, n_nodes: int) -> "VersionVector":
        """The all-zero vector: the state of a freshly initialized replica."""
        return cls(n_nodes)

    @classmethod
    def from_counts(cls, counts: Iterable[int]) -> "VersionVector":
        """Build a vector from an explicit component sequence.

        One validated pass straight into the backing array — the old
        implementation built ``list(counts)`` and then let ``__init__``
        copy it a second time.
        """
        vv = cls.__new__(cls)
        if type(counts) is tuple:
            # The wire-decode path: components arrive as a tuple, which
            # doubles as the as_tuple() cache for free — re-encoding the
            # decoded vector is then O(1).  The array conversion itself
            # validates; _as_component_array only runs to shape errors.
            try:
                vv._counts = array("Q", counts)
            except (OverflowError, TypeError):
                vv._counts = _as_component_array(counts)
            vv._tuple = counts
        else:
            vv._counts = (
                _as_component_array(counts)
                if isinstance(counts, (list, array))
                else _as_component_array(list(counts))
            )
            vv._tuple = None
        vv._total = None
        vv._hash = None
        return vv

    def copy(self) -> "VersionVector":
        """An independent copy; mutating it never affects ``self``.

        Components are already validated, so the copy bypasses
        ``__init__``'s validation pass — copies happen on every
        propagation request, and the scan made each one O(n) Python
        work instead of one C-level buffer copy.  Cached total/hash
        values carry over: they describe the same components."""
        dup = VersionVector.__new__(VersionVector)
        dup._counts = self._counts[:]
        dup._total = self._total
        dup._hash = self._hash
        dup._tuple = self._tuple
        return dup

    # -- basic container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self._counts)

    def __getitem__(self, node: int) -> int:
        try:
            return self._counts[node]
        except IndexError:
            raise UnknownNodeError(node) from None

    def __setitem__(self, node: int, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative version vector component: {value}")
        counts = self._counts
        try:
            before = counts[node]
            counts[node] = value
        except IndexError:
            raise UnknownNodeError(node) from None
        except OverflowError:
            raise ValueError(
                "version vector component exceeds the 64-bit range"
            ) from None
        if self._total is not None:
            self._total += value - before
        self._hash = None
        self._tuple = None

    def __iter__(self) -> Iterator[int]:
        return iter(self._counts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VersionVector):
            return self._counts == other._counts
        return NotImplemented

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            # Hash the raw buffer: one C-level pass, no tuple boxing.
            # Equal arrays (same typecode) have equal buffers, so this
            # stays consistent with ``__eq__``.
            cached = self._hash = hash(self._counts.tobytes())
        return cached

    def __repr__(self) -> str:
        return f"VersionVector({list(self._counts)!r})"

    def as_tuple(self) -> tuple[int, ...]:
        """The components as an immutable tuple (useful as a dict key).

        Cached until the next mutation: the wire encoder and the digest
        paths call this on every frame/probe, almost always on a vector
        that has not changed since the last call.
        """
        cached = self._tuple
        if cached is None:
            cached = self._tuple = tuple(self._counts)
        return cached

    def total(self) -> int:
        """Sum of all components — the total number of updates reflected.

        Cached; mutations either maintain it incrementally (increment,
        item assignment) or invalidate it (merge).  The sanitizer
        cross-checks the cache via :meth:`recompute_total`.
        """
        cached = self._total
        if cached is None:
            cached = self._total = sum(self._counts)
        return cached

    def recompute_total(self) -> int:
        """The component sum, recomputed from scratch — never the cache.

        The run-time sanitizer compares this against :meth:`total` after
        every session so a cache-maintenance bug surfaces at the
        mutation that introduced it rather than as silent drift.
        """
        return sum(self._counts)

    # -- the vector algebra ----------------------------------------------------

    def increment(self, node: int, by: int = 1) -> None:
        """Record ``by`` new local updates originated at ``node``.

        This is the rule "when server i performs an update, it increments
        its own entry" (paper section 3) applied ``by`` times.
        """
        if by < 0:
            raise ValueError(f"cannot increment by a negative amount: {by}")
        counts = self._counts
        try:
            counts[node] += by
        except IndexError:
            raise UnknownNodeError(node) from None
        except OverflowError:
            raise ValueError(
                "version vector component exceeds the 64-bit range"
            ) from None
        if self._total is not None:
            self._total += by
        self._hash = None
        self._tuple = None

    def merge_from(self, other: "VersionVector") -> None:
        """Component-wise maximum, in place: ``self = max(self, other)``.

        This is the adoption rule of paper section 3: when a replica
        obtains the missing updates of a newer copy it takes the join of
        the two vectors.  Identical operands — the converged steady
        state, probed every round — cost one C-level buffer comparison;
        otherwise the join is a single fused ``map(max, ...)`` pass
        instead of a Python per-index loop.
        """
        self._check_compatible(other)
        mine, theirs = self._counts, other._counts
        if theirs is mine or theirs == mine:
            return
        self._counts = array("Q", map(max, mine, theirs))
        self._total = None
        self._hash = None
        self._tuple = None

    def compare(self, other: "VersionVector") -> Ordering:
        """Classify ``self`` against ``other`` per Theorem 3's corollaries."""
        self._check_compatible(other)
        mine, theirs = self._counts, other._counts
        if theirs is mine or mine == theirs:
            return Ordering.EQUAL
        # Two early-exiting C-level passes beat the single Python loop
        # by an order of magnitude at realistic widths.
        some_less = any(map(operator.lt, mine, theirs))
        some_greater = any(map(operator.gt, mine, theirs))
        if some_less:
            return Ordering.CONCURRENT if some_greater else Ordering.DOMINATED
        return Ordering.DOMINATES

    def dominates_or_equal(self, other: "VersionVector") -> bool:
        """True iff ``self >= other`` component-wise.

        This is the test SendPropagation opens with: if the recipient's
        vector dominates-or-equals the source's, no propagation is needed
        (paper Fig. 2).  Equal vectors — the steady state of a converged
        cluster, probed every round — short-circuit on one C-level
        buffer comparison instead of the component loop.
        """
        self._check_compatible(other)
        mine, theirs = self._counts, other._counts
        if theirs is mine or mine == theirs:
            return True
        return not any(map(operator.lt, mine, theirs))

    # -- internals ---------------------------------------------------------

    def _check_compatible(self, other: "VersionVector") -> None:
        if len(self._counts) != len(other._counts):
            raise ReplicaSetMismatchError(
                f"version vectors cover different replica sets: "
                f"{len(self._counts)} vs {len(other._counts)} nodes"
            )


def merge(a: VersionVector, b: VersionVector) -> VersionVector:
    """The join of two vectors as a new vector (neither operand changes)."""
    result = a.copy()
    result.merge_from(b)
    return result


_COUNTS = operator.attrgetter("_counts")


def pack_vectors(vectors: Iterable[VersionVector]) -> bytes:
    """The components of ``vectors``, concatenated as little-endian
    64-bit words — the checkpoint's IVV column, built in C-level passes
    (no per-component boxing)."""
    words = b"".join(map(array.tobytes, map(_COUNTS, vectors)))
    if sys.byteorder == "big":
        swapped = array("Q", words)
        swapped.byteswap()
        return swapped.tobytes()
    return words
