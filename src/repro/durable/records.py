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
=========  =====================================  =======================

A resolve record (kind 6) carries the lineage the resolution merged —
the join of the item's regular and auxiliary IVVs and of every
conflict report's vectors — in full form.  The reports are telemetry
that no checkpoint keeps, so a record that named only the item and the
value (kind 4, retired) replayed after a fold as a different node;
:func:`decode_record` refuses kind 4 loudly, as the wire refuses type
id 4.

Each record body is LEB128 wire encoding, reusing the :mod:`repro.wire`
field primitives and per-message codecs::

    body := uvarint(lsn) uvarint(kind) payload

The nested ``PropagationReply``/``OutOfBoundReply`` payloads go through
the registered message codecs with a **delta-VV-free** codec instance:
a log record must be self-contained (replayable with no cross-record
cache), so every version vector is stored in full form.  An accept
record is therefore exactly as compact as the reply frame it journals
(type id 9: names once, seqnos as differences), and a record written
before that format (type id 4, retired) fails :func:`decode_record`
with *unknown type id* — recovery stops there, loudly.  The checkpoint
(:mod:`repro.durable.checkpoint`) is the same kind of frame around a
column dump and reuses the op encoding for its auxiliary log; an old
text checkpoint is refused just as loudly, so an old data directory is
emptied and re-seeded from a peer, not upgraded in place.

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

__all__ = [
    "WalAccept",
    "WalExpand",
    "WalOob",
    "WalRecord",
    "WalResolve",
    "WalUpdate",
    "apply_record",
    "decode_record",
    "encode_record",
    "validate_record",
]

#: Record-kind tags; stable on-disk constants like wire type ids.
_KIND_UPDATE = 1
_KIND_ACCEPT = 2
_KIND_OOB = 3
#: A resolution without its lineage, by an earlier release: refused.
_KIND_RESOLVE_RETIRED = 4
_KIND_EXPAND = 5
_KIND_RESOLVE = 6

#: Log records are self-contained: full version vectors, no delta
#: caches.  With ``delta_vv=False`` the codec instance is stateless, so
#: one module-level instance serves every journal.
_CODEC = WireCodec(delta_vv=False)


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


WalRecord = Union[WalUpdate, WalAccept, WalOob, WalResolve, WalExpand]


def encode_record(lsn: int, record: WalRecord) -> bytes:
    """Encode one record body (LSN + kind + payload)."""
    enc = Encoder(_CODEC, 0, 0)
    enc.uvarint(lsn)
    if isinstance(record, WalUpdate):
        enc.uvarint(_KIND_UPDATE)
        enc.string(record.item)
        encode_wire_op(enc, record.op)
    elif isinstance(record, WalAccept):
        enc.uvarint(_KIND_ACCEPT)
        enc.message(record.reply)
    elif isinstance(record, WalOob):
        enc.uvarint(_KIND_OOB)
        enc.message(record.reply)
    elif isinstance(record, WalResolve):
        enc.uvarint(_KIND_RESOLVE)
        enc.string(record.item)
        enc.bytes_(record.value)
        enc.vv("lineage", record.lineage)
    else:
        enc.uvarint(_KIND_EXPAND)
        enc.uvarint(record.n_nodes)
    return bytes(enc.buf)


def decode_record(body: bytes) -> tuple[int, WalRecord]:
    """Decode one CRC-valid record body back to ``(lsn, record)``.

    The WAL layer's CRC already vouches for the bytes, so a decode
    failure here is semantic corruption (or a version skew), never a
    torn tail — it raises :class:`~repro.errors.WALError` and recovery
    stops instead of replaying a guess.
    """
    dec = Decoder(_CODEC, 0, 0, body)
    try:
        lsn = dec.uvarint()
        kind = dec.uvarint()
        record: WalRecord
        if kind == _KIND_UPDATE:
            record = WalUpdate(dec.string(), decode_wire_op(dec))
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
            record = WalResolve(dec.string(), dec.bytes_(), dec.vv("lineage"))
        elif kind == _KIND_RESOLVE_RETIRED:
            raise WALError(
                f"retired WAL record kind {kind}: a conflict resolution "
                "journaled without its lineage by an earlier release; "
                "fold that journal with a clean shutdown of the release "
                "that wrote it, then start this one"
            )
        elif kind == _KIND_EXPAND:
            record = WalExpand(dec.uvarint())
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
    """Replay one record against ``node`` (recovery path)."""
    if isinstance(record, WalUpdate):
        node.update(record.item, record.op)
    elif isinstance(record, WalAccept):
        node.accept_propagation(record.reply)
    elif isinstance(record, WalOob):
        node.accept_oob(record.reply)
    elif isinstance(record, WalResolve):
        node.resolve_conflict(record.item, record.value, record.lineage)
    else:
        node.expand_replica_set(record.n_nodes)
