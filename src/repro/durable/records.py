"""WAL record types: the state-changing inputs of an epidemic node.

The WAL is a *command log*: it journals the five inputs that change a
node's durable protocol state, and recovery replays them against the
checkpoint base.  Replaying a prefix of the inputs reproduces exactly
the state the node had after accepting that prefix (every entry point
is deterministic given the state it runs against), which is what makes
truncate-anywhere crash recovery prefix-consistent:

=========  =====================================  =======================
kind       journaled after                        replayed as
=========  =====================================  =======================
update     ``EpidemicNode.update``                ``node.update``
accept     ``PullSession.conclude`` adopting a    ``node.accept_propagation``
           ``PropagationReply``
oob        ``EpidemicNode.accept_oob``            ``node.accept_oob``
resolve    ``EpidemicNode.resolve_conflict``      ``node.resolve_conflict``
                                                  with the journaled lineage
expand     ``EpidemicNode.expand_replica_set``    ``node.expand_replica_set``
identity   the first record of a WAL file         checked, not applied
=========  =====================================  =======================

Each record body is LEB128 wire encoding, reusing the :mod:`repro.wire`
field primitives and per-message codecs::

    body := uvarint(lsn) uvarint(kind) payload

An item is its position in the journal's item schema
(:meth:`Encoder.item <repro.wire.codec.Encoder.item>`), as on the wire,
so every record is read with the :class:`~repro.wire.WireCodec` of the
journal that wrote it: one per journal, built over the node's items,
with delta-VV caches off — a log record must be self-contained
(replayable with no cross-record cache), so every version vector it
holds is in full form.

An **accept record** (kind 2) is the reply's frame payload —
``uvarint(10)`` and the v3 reply body — byte for byte as it arrived:
that body reads no link cache, so a durable pull journals what it
decoded instead of encoding the reply again (:func:`encode_accept`).  A
record written before (type id 4 or 9, both retired) fails
:func:`decode_record` with *unknown type id* — recovery stops there,
loudly.  A resolve record (kind 9) carries the lineage the resolution
merged — the join of the item's regular and auxiliary IVVs and of
every conflict report's vectors — since the reports are telemetry that
no checkpoint keeps.

The **identity record** (kind 10: node id and the 8-byte schema digest)
opens every WAL file: the journal writes it before the first record
after it is created and after each fold, and recovery refuses a WAL
that does not open with one naming the replica it is recovering.
Retired kinds are refused loudly, naming the kind: 1, 3 and 6 (an
update, out-of-bound reply or resolution that named its item, before
items were schema positions) and 4 (a resolution without its lineage).
The checkpoint (:mod:`repro.durable.checkpoint`) is the same kind of
frame around a column dump; an old text checkpoint is refused just as
loudly, so an old data directory is emptied and re-seeded from a peer,
not upgraded in place.

The LSN makes checkpointing crash-safe.  ``NodeJournal.checkpoint``
first replaces the snapshot (atomically), then truncates the WAL; a
crash between the two leaves old records in the log, but their LSNs are
at or below the checkpoint's and recovery skips them — replaying a user
update twice is *not* idempotent (it bumps the origin's seqno again),
so the skip is load-bearing, not an optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.messages import OutOfBoundReply, PropagationReply
from repro.core.node import EpidemicNode
from repro.core.validate import (
    MAX_REPLICA_SET,
    validate_item_name,
    validate_oob_reply,
    validate_propagation_reply,
    validate_value,
    validate_version_vector,
)
from repro.core.version_vector import VersionVector
from repro.errors import ValidationError, WALError, WireFormatError
from repro.substrate.operations import UpdateOperation
from repro.wire.codec import Decoder, Encoder, WireCodec
from repro.wire.codecs import decode_wire_op, encode_wire_op
from repro.wire.varint import write_uvarint

__all__ = [
    "WalAccept",
    "WalExpand",
    "WalIdentity",
    "WalOob",
    "WalRecord",
    "WalResolve",
    "WalUpdate",
    "apply_record",
    "decode_record",
    "encode_accept",
    "encode_record",
    "validate_record",
]

#: Record-kind tags; stable on-disk constants like wire type ids.
_KIND_ACCEPT = 2
_KIND_EXPAND = 5
_KIND_UPDATE = 7
_KIND_OOB = 8
_KIND_RESOLVE = 9
_KIND_IDENTITY = 10
#: Kinds an earlier release wrote, refused by name (never reuse them).
_RETIRED_KINDS = {
    1: "an update that named its item, before items were schema positions",
    3: "an out-of-bound reply that named its item, before items were "
    "schema positions",
    4: "a conflict resolution journaled without its lineage",
    6: "a conflict resolution that named its item, before items were "
    "schema positions",
}


@dataclass(frozen=True, slots=True)
class WalUpdate:
    """A user update accepted at this node."""

    item: str
    op: UpdateOperation


@dataclass(frozen=True, slots=True)
class WalAccept:
    """A propagation reply this node adopted (anti-entropy pull)."""

    reply: PropagationReply


@dataclass(frozen=True, slots=True)
class WalOob:
    """An out-of-bound reply this node processed."""

    reply: OutOfBoundReply


@dataclass(frozen=True, slots=True)
class WalResolve:
    """An administrator conflict resolution applied at this node, with
    the lineage it merged (the conflict reports it read are not kept)."""

    item: str
    value: bytes
    lineage: VersionVector


@dataclass(frozen=True, slots=True)
class WalExpand:
    """A replica-set expansion this node learned about."""

    n_nodes: int


@dataclass(frozen=True, slots=True)
class WalIdentity:
    """The replica a WAL file belongs to: its node id and the digest of
    its item schema (:attr:`Schema.digest <repro.wire.codec.Schema.digest>`)."""

    node_id: int
    schema_digest: bytes


WalRecord = Union[WalUpdate, WalAccept, WalOob, WalResolve, WalExpand, WalIdentity]


def encode_record(codec: WireCodec, lsn: int, record: WalRecord) -> bytes:
    """Encode one record body (LSN + kind + payload) with the journal's
    codec.  An accept record is the payload that arrived
    (:func:`encode_accept`), never encoded here."""
    enc = Encoder(codec, 0, 0)
    enc.uvarint(lsn)
    if isinstance(record, WalUpdate):
        enc.uvarint(_KIND_UPDATE)
        enc.item(record.item)
        encode_wire_op(enc, record.op)
    elif isinstance(record, WalOob):
        enc.uvarint(_KIND_OOB)
        enc.message(record.reply)
    elif isinstance(record, WalResolve):
        enc.uvarint(_KIND_RESOLVE)
        enc.item(record.item)
        enc.bytes_(record.value)
        enc.vv("lineage", record.lineage)
    elif isinstance(record, WalExpand):
        enc.uvarint(_KIND_EXPAND)
        enc.uvarint(record.n_nodes)
    elif isinstance(record, WalIdentity):
        enc.uvarint(_KIND_IDENTITY)
        enc.uvarint(record.node_id)
        enc.bytes_(record.schema_digest)
    else:
        raise TypeError(
            f"{type(record).__name__} is journaled as received: use encode_accept"
        )
    return bytes(enc.buf)


def encode_accept(lsn: int, payload: bytes | memoryview) -> bytearray:
    """An accept record: ``payload`` is a ``PropagationReply``'s frame
    payload (type id and body, no length prefix), as it was decoded."""
    body = bytearray()
    write_uvarint(body, lsn)
    body.append(_KIND_ACCEPT)
    body += payload
    return body


def decode_record(codec: WireCodec, body: bytes) -> tuple[int, WalRecord]:
    """Decode one CRC-valid record body back to ``(lsn, record)`` with
    the codec of the journal that wrote it.

    The WAL layer's CRC already vouches for the bytes, so a decode
    failure here is semantic corruption (or a version skew), never a
    torn tail — it raises :class:`~repro.errors.WALError` and recovery
    stops instead of replaying a guess.
    """
    dec = Decoder(codec, 0, 0, body)
    try:
        lsn = dec.uvarint()
        kind = dec.uvarint()
        record: WalRecord
        if kind == _KIND_UPDATE:
            record = WalUpdate(dec.item(), decode_wire_op(dec))
        elif kind == _KIND_ACCEPT:
            message = dec.message()
            if not isinstance(message, PropagationReply):
                raise WALError(
                    f"accept record carries a {type(message).__name__}, "
                    "expected PropagationReply"
                )
            record = WalAccept(message)
        elif kind == _KIND_OOB:
            message = dec.message()
            if not isinstance(message, OutOfBoundReply):
                raise WALError(
                    f"oob record carries a {type(message).__name__}, "
                    "expected OutOfBoundReply"
                )
            record = WalOob(message)
        elif kind == _KIND_RESOLVE:
            record = WalResolve(dec.item(), dec.bytes_(), dec.vv("lineage"))
        elif kind == _KIND_EXPAND:
            record = WalExpand(dec.uvarint())
        elif kind == _KIND_IDENTITY:
            record = WalIdentity(dec.uvarint(), dec.bytes_())
        elif kind in _RETIRED_KINDS:
            raise WALError(
                f"retired WAL record kind {kind}: {_RETIRED_KINDS[kind]}, "
                "by an earlier release; fold that journal with a clean "
                "shutdown of the release that wrote it, then start this one"
            )
        else:
            raise WALError(f"unknown WAL record kind {kind}")
    except WireFormatError as exc:
        raise WALError(f"CRC-valid WAL record failed to decode: {exc}") from exc
    if dec.pos != len(body):
        raise WALError(
            f"{len(body) - dec.pos} trailing byte(s) inside a CRC-valid "
            "WAL record body"
        )
    return lsn, record


def validate_record(record: WalRecord, node: EpidemicNode) -> WalRecord:
    """Trust-boundary check before replaying a decoded WAL record.

    The log lives on disk, outside the process: a record that parses
    (CRC and codec both happy) can still carry values no honest run of
    this node ever journaled — an unknown item, a reply sized for a
    different replica set, a shrinking "expansion".  Replay order
    preserves state equivalence (the node's ``n_nodes``/DBVV during
    replay match what they were when the record was journaled), so the
    deep reply validators apply verbatim.  Registered as an R13
    sanitizer; raises :class:`~repro.errors.ValidationError`.
    """
    if isinstance(record, WalUpdate):
        if validate_item_name(record.item) not in node.store:
            raise ValidationError(
                f"update record names unknown item {record.item!r}"
            )
        if not isinstance(record.op, UpdateOperation):
            raise ValidationError(
                f"update record carries a {type(record.op).__name__}, "
                "expected an UpdateOperation"
            )
    elif isinstance(record, WalAccept):
        validate_propagation_reply(record.reply, node)
    elif isinstance(record, WalOob):
        validate_oob_reply(record.reply, node)
    elif isinstance(record, WalResolve):
        if validate_item_name(record.item) not in node.store:
            raise ValidationError(
                f"resolve record names unknown item {record.item!r}"
            )
        validate_value(record.value)
        validate_version_vector(
            record.lineage, node.n_nodes, what="resolve record lineage"
        )
    elif isinstance(record, WalExpand):
        if not node.n_nodes <= record.n_nodes <= MAX_REPLICA_SET:
            raise ValidationError(
                f"expand record grows the replica set from {node.n_nodes} "
                f"to {record.n_nodes} — shrink or past the "
                f"{MAX_REPLICA_SET} cap"
            )
    else:
        raise ValidationError(
            f"unknown WAL record type {type(record).__name__}"
        )
    return record


def apply_record(node: EpidemicNode, record: WalRecord) -> None:
    """Replay one record against ``node`` (recovery path).  An identity
    record changes nothing: ``NodeJournal.recover`` checks it."""
    if isinstance(record, WalUpdate):
        node.update(record.item, record.op)
    elif isinstance(record, WalAccept):
        node.accept_propagation(record.reply)
    elif isinstance(record, WalOob):
        node.accept_oob(record.reply)
    elif isinstance(record, WalResolve):
        node.resolve_conflict(record.item, record.value, record.lineage)
    elif isinstance(record, WalExpand):
        node.expand_replica_set(record.n_nodes)
