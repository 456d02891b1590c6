"""Protocol messages with wire-size accounting.

The experiments compare protocols on traffic as well as computation, so
every message models its encoded size.  Size model (consistent across the
core protocol and all baselines):

* scalar / sequence number: 8 bytes,
* item name: a length word plus the name's UTF-8 bytes
  (:func:`string_wire_size` — names are variable-length data, not
  8-byte references; a flat word per name silently under-charged every
  protocol in proportion to its name traffic),
* version vector over ``n`` nodes: ``8 * n`` bytes,
* regular log record: :data:`~repro.core.log_vector.LOG_RECORD_WIRE_SIZE`
  (constant — the paper stresses regular records are "very short"),
* item payload: the value's length plus its IVV plus its name.

These are simulation constants, not a serialization format: the paper's
claims are about asymptotics (constant metadata per shipped item), which
any reasonable constant preserves.  The binary codec in
:mod:`repro.wire` is the actual serialization, and a :mod:`repro.net`
cluster's frames are where deployed bytes are measured.

The list-summing helpers below (:func:`name_list_wire_size`,
:func:`named_vv_list_wire_size`, :func:`payload_list_wire_size`) are
shared by every baseline so the size model cannot fork per protocol;
the baselines' one record type,
:class:`~repro.baselines.replica.LWWRecord`, sizes itself from
:func:`string_wire_size` and :data:`WORD_SIZE`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Protocol

from repro.core.log_vector import LOG_RECORD_WIRE_SIZE
from repro.core.version_vector import VersionVector

__all__ = [
    "WORD_SIZE",
    "vv_wire_size",
    "string_wire_size",
    "name_list_wire_size",
    "named_vv_list_wire_size",
    "payload_list_wire_size",
    "ItemPayload",
    "PropagationRequest",
    "YouAreCurrent",
    "PropagationReply",
    "OutOfBoundRequest",
    "OutOfBoundReply",
]

WORD_SIZE = 8
"""Modelled size of one scalar field on the wire."""


def vv_wire_size(vv: VersionVector) -> int:
    """Modelled encoded size of a version vector."""
    return WORD_SIZE * len(vv)


def string_wire_size(text: str) -> int:
    """Modelled encoded size of a string: a length word plus its UTF-8
    bytes.  Every message that carries an item name charges this."""
    return WORD_SIZE + len(text.encode("utf-8"))


def name_list_wire_size(names: Iterable[str]) -> int:
    """Modelled size of a list of item names (no count word — callers
    charge their own header words)."""
    return sum(string_wire_size(name) for name in names)


def named_vv_list_wire_size(
    ivvs: Iterable[tuple[str, VersionVector]],
) -> int:
    """Modelled size of ``(name, vector)`` pairs, the per-item
    anti-entropy baseline's advertisement unit."""
    return sum(
        string_wire_size(name) + vv_wire_size(ivv) for name, ivv in ivvs
    )


class _SizedPayload(Protocol):
    def wire_size(self) -> int: ...


def payload_list_wire_size(payloads: Iterable[_SizedPayload]) -> int:
    """Modelled size of a batch of sized payloads/records — the shared
    body-summing loop of every push/shipment/gossip message."""
    return sum(payload.wire_size() for payload in payloads)


@dataclass(frozen=True, slots=True)
class ItemPayload:
    """One entry of the item set S: a whole item copy plus its IVV.

    The paper presents whole-data-copying (section 2); shipping log
    records of missing updates instead would change only this payload.
    """

    name: str
    value: bytes
    ivv: VersionVector

    def wire_size(self) -> int:
        return string_wire_size(self.name) + len(self.value) + vv_wire_size(self.ivv)


@dataclass(frozen=True, slots=True)
class PropagationRequest:
    """Step 1 of update propagation: recipient ``i`` sends its DBVV."""

    recipient: int
    dbvv: VersionVector

    def wire_size(self) -> int:
        return WORD_SIZE + vv_wire_size(self.dbvv)


@dataclass(frozen=True, slots=True)
class YouAreCurrent:
    """SendPropagation's constant-size 'no propagation needed' answer."""

    source: int

    def wire_size(self) -> int:
        return WORD_SIZE


@dataclass(frozen=True, slots=True)
class PropagationReply:
    """SendPropagation's answer when the recipient is behind.

    ``tails``  — the tail vector D: ``tails[k]`` lists ``(item, seqno)``
                 pairs of updates originated at ``k`` that the recipient
                 misses, oldest first (``None``/empty when up to date
                 for that origin).
    ``items``  — the set S of item payloads referenced by D, each with
                 its IVV (paper Fig. 2 sends IVVs along).
    """

    source: int
    tails: tuple[tuple[tuple[str, int], ...], ...]
    items: tuple[ItemPayload, ...]

    def record_count(self) -> int:
        return sum(map(len, self.tails))

    def wire_size(self) -> int:
        return (
            WORD_SIZE
            + self.record_count() * LOG_RECORD_WIRE_SIZE
            + payload_list_wire_size(self.items)
        )


@dataclass(frozen=True, slots=True)
class OutOfBoundRequest:
    """A request to copy one item immediately (paper section 5.2)."""

    requester: int
    item: str

    def wire_size(self) -> int:
        return WORD_SIZE + string_wire_size(self.item)


@dataclass(frozen=True, slots=True)
class OutOfBoundReply:
    """The source's current copy of the item — auxiliary if it has one
    (never older than its regular copy), with the matching IVV.  No log
    records travel with out-of-bound data (paper section 5.2).
    """

    source: int
    item: str
    value: bytes
    ivv: VersionVector = field(repr=False)

    def wire_size(self) -> int:
        return (
            WORD_SIZE
            + string_wire_size(self.item)
            + len(self.value)
            + vv_wire_size(self.ivv)
        )
