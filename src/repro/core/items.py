"""Data items and the per-replica item store.

Each node's database replica holds, for every data item:

* the *regular copy*: the value plus its item version vector (IVV),
  which is the only state scheduled update propagation ever looks at;
* the ``IsSelected`` flag used by ``SendPropagation`` to build the set S
  of items to ship in O(m) without a set structure (paper section 6);
* optionally an *auxiliary copy* (value + auxiliary IVV) created by
  out-of-bound copying (paper section 4.3) — stored here, managed by the
  node logic in :mod:`repro.core.node`.

The store assumes the database schema (the set of item names) is fixed
and identical across replicas, matching the paper's fixed-replica-set
model; items are registered once at database creation.
"""

from __future__ import annotations

from typing import Callable, Iterator, KeysView

from repro.core.version_vector import VersionVector
from repro.errors import UnknownItemError

__all__ = ["DataItem", "ItemStore"]


class DataItem:
    """One data item replica on one node (regular + optional auxiliary)."""

    __slots__ = (
        "name",
        "value",
        "ivv",
        "is_selected",
        "aux_value",
        "aux_ivv",
        "in_conflict",
    )

    def __init__(self, name: str, ivv: VersionVector, value: bytes = b""):
        self.name = name
        self.value = value
        self.ivv = ivv
        # Scratch flag for SendPropagation's O(m) dedup of the item set S.
        self.is_selected = False
        self.aux_value: bytes | None = None
        self.aux_ivv: VersionVector | None = None
        # Set when this replica was declared inconsistent with another;
        # purely informational (the paper leaves resolution to the app).
        self.in_conflict = False

    @property
    def has_auxiliary(self) -> bool:
        """True while an out-of-bound (auxiliary) copy exists."""
        return self.aux_ivv is not None

    def current_value(self) -> bytes:
        """The value user reads see: auxiliary if present, else regular
        (paper section 5.3 routes user operations the same way).
        """
        if self.aux_value is not None:
            return self.aux_value
        return self.value

    def current_ivv(self) -> VersionVector:
        """The IVV matching :meth:`current_value`."""
        if self.aux_ivv is not None:
            return self.aux_ivv
        return self.ivv

    def install_auxiliary(self, value: bytes, ivv: VersionVector) -> None:
        """Create/replace the auxiliary copy (out-of-bound adoption)."""
        self.aux_value = value
        self.aux_ivv = ivv.copy()

    def drop_auxiliary(self) -> None:
        """Discard the auxiliary copy (regular copy has caught up)."""
        self.aux_value = None
        self.aux_ivv = None

    def __repr__(self) -> str:
        aux = " +aux" if self.has_auxiliary else ""
        return f"DataItem({self.name!r}, ivv={self.ivv.as_tuple()}{aux})"


class _ItemDict(dict[str, DataItem]):
    """``{name: item}`` whose miss is the typed ``UnknownItemError``:
    a lookup costs a dict subscript and nothing else."""

    __slots__ = ()

    def __missing__(self, name: str) -> DataItem:
        raise UnknownItemError(name)


class ItemStore:
    """All data item replicas of one node's database replica."""

    __slots__ = ("n_nodes", "_items")

    def __init__(self, n_nodes: int, item_names: list[str] | tuple[str, ...] = ()):
        self.n_nodes = n_nodes
        self._items = _ItemDict()
        for name in item_names:
            self.register(name, VersionVector.zero(n_nodes))

    def register(self, name: str, ivv: VersionVector, value: bytes = b"") -> DataItem:
        """Add an item to the schema with its regular copy's IVV and
        value; idempotent registration is an error (a duplicate name
        almost certainly means two call sites disagree about schema
        ownership).
        """
        if name in self._items:
            raise ValueError(f"item {name!r} already registered")
        item = DataItem(name, ivv, value)
        self._items[name] = item
        return item

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, name: str) -> DataItem:
        return self._items[name]

    def lookup(self) -> Callable[[str], DataItem]:
        """``store[name]`` as a bare callable, for a loop that looks up
        one item per iteration.  Fetch it per use and do not keep it: it
        is bound to this store's dict, and a copy of the store (the
        explorer ``deepcopy``s nodes) has another."""
        return self._items.__getitem__

    def __iter__(self) -> Iterator[DataItem]:
        return iter(self._items.values())

    def names(self) -> KeysView[str]:
        return self._items.keys()

    def get(self, name: str) -> DataItem | None:
        return self._items.get(name)
