"""The checkpoint file: a node's whole protocol state as one binary record.

``NodeJournal.checkpoint`` writes ``<data_dir>/checkpoint.snap`` as a
single WAL frame (:func:`~repro.durable.wal.frame_record`:
``uvarint(len) u32le(crc32) body``) whose body is laid out by column, so
writing and reading it cost a few C-level passes per column rather than
a text line per item::

    body      := uvarint(lsn) uvarint(node_id) uvarint(n_nodes) vv(dbvv)
                 uvarint(items)
                 block(names) block(ivvs) block(values) block(conflicts)
                 block(log) block(aux) block(auxlog)
    block     := uvarint(len) bytes[len]
    names     := u32[items] name lengths in code points, then the UTF-8
                 of the names concatenated in store order
    ivvs      := u64[items * n_nodes], each item's IVV in store order
    values    := u32[items] value lengths, then the values concatenated
    conflicts := u8[items], 1 while the item is declared in conflict
    log       := u32[n_nodes] records per origin, then the u32 item
                 indexes and then the u64 seqnos of every record, origin
                 by origin, oldest first
    aux       := uvarint(count), then per auxiliary copy
                 uvarint(item index) vv(aux ivv) bytes(aux value)
    auxlog    := uvarint(count), then per record, oldest first,
                 uvarint(item index) vv(pre-update ivv) op

Fixed-width integers are little-endian; ``vv``, ``bytes`` and ``op`` are
the §12 wire primitives in full, delta-free form, as in WAL records.
``lsn`` is the last WAL record the checkpoint covers (recovery's LSN
gate).  ``aux`` and ``auxlog`` are empty unless out-of-bound copies are
pending.

:func:`load_node` reads the file through
:meth:`~repro.durable.wal.WriteAheadLog.scan`, and the file must be
exactly one intact frame: a cut or a flipped bit anywhere is a
:class:`SnapshotError`, never a smaller node.  A text checkpoint written
by an earlier release is refused with the remedy.  The body decodes into
a :class:`Snapshot`, which :func:`validate_snapshot` checks before any
node exists; :func:`rebuild_node`, the one writer of core state outside
:mod:`repro.core` (lint rule R4's sanctioned exception), then makes it a
node.  The conflict reporter's history and the counters are measurement
state, not protocol state, and are not kept: a restored node starts with
empty telemetry.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate, compress, count, islice, repeat
from operator import attrgetter, is_not, lt
from typing import AnyStr, Callable, Iterable, Sequence, TypeVar

from repro.core.node import EpidemicNode
from repro.core.validate import (
    MAX_REPLICA_SET,
    MAX_VALUE_LEN,
    MAX_VV_COMPONENT,
    validate_item_name,
    validate_value,
    validate_version_vector,
)
from repro.core.version_vector import VersionVector, pack_vectors
from repro.durable.wal import WriteAheadLog, frame_record
from repro.errors import ReplicationError, ValidationError
from repro.substrate.operations import UpdateOperation
from repro.wire.codec import Decoder, Encoder, WireCodec
from repro.wire.codecs import decode_wire_op, encode_wire_op
from repro.wire.varint import write_uvarint

__all__ = [
    "Snapshot",
    "SnapshotError",
    "decode_checkpoint",
    "encode_checkpoint",
    "load_node",
    "rebuild_node",
    "validate_snapshot",
]

if array("I").itemsize != 4 or array("Q").itemsize != 8:
    raise ImportError("checkpoint columns need 4- and 8-byte array items")

#: Stateless (no delta caches, no item schema — the body addresses
#: items by store position itself): one instance serves every checkpoint.
_CODEC = WireCodec((), delta_vv=False)
_BIG_ENDIAN = sys.byteorder == "big"
#: How every checkpoint before the binary format began.
_TEXT_HEADER = b"checkpoint lsn "


class SnapshotError(ReplicationError):
    """A checkpoint could not be encoded or decoded."""


@dataclass(slots=True)
class Snapshot:
    """A node's protocol state as decoded — not yet trusted.

    Items are addressed by their index in ``names`` (store order), and
    ``ivvs`` is one flat column of ``n_nodes`` components per item.
    """

    node_id: int
    n_nodes: int
    dbvv: VersionVector
    names: list[str]
    ivvs: Sequence[int]
    values: list[bytes]
    #: One byte per item: 1 while the item is declared in conflict.
    conflicts: bytes
    #: ``(origin, item indexes, seqnos)`` per non-empty log component,
    #: origins ascending, records oldest first.
    log: list[tuple[int, Sequence[int], Sequence[int]]]
    #: ``(item index, auxiliary IVV, auxiliary value)`` per aux copy.
    aux: list[tuple[int, VersionVector, bytes]]
    #: ``(item index, pre-update IVV, operation)``, oldest first.
    aux_log: list[tuple[int, VersionVector, UpdateOperation]]


_Entry = TypeVar("_Entry")
_IVV = attrgetter("ivv")
_AUX_IVV = attrgetter("aux_ivv")
_VALUE = attrgetter("value")
_CONFLICT = attrgetter("in_conflict")
_ITEM = attrgetter("item")
_SEQNO = attrgetter("seqno")


def encode_checkpoint(lsn: int, node: EpidemicNode) -> bytearray:
    """The checkpoint file holding ``node``, covering WAL records up to
    ``lsn``: one framed record, ready for an atomic write."""
    entries = list(node.store)
    names = list(node.store.names())
    values = list(map(_VALUE, entries))
    enc = Encoder(_CODEC, 0, 0)
    enc.uvarint(lsn)
    enc.uvarint(node.node_id)
    enc.uvarint(node.n_nodes)
    enc.vv("dbvv", node.dbvv)
    enc.uvarint(len(entries))
    body = enc.buf
    _block(body, _words("I", map(len, names)), "".join(names).encode("utf-8"))
    _block(body, pack_vectors(map(_IVV, entries)))
    _block(body, _words("I", map(len, values)), b"".join(values))
    _block(body, bytes(map(_CONFLICT, entries)))
    index = dict(zip(names, range(len(names))))
    components = [list(node.log[origin]) for origin in range(node.n_nodes)]
    records = [record for component in components for record in component]
    _block(
        body,
        _words("I", map(len, components)),
        _words("I", map(index.__getitem__, map(_ITEM, records))),
        _words("Q", map(_SEQNO, records)),
    )
    section = Encoder(_CODEC, 0, 0)
    copies = list(compress(count(), map(is_not, map(_AUX_IVV, entries), repeat(None))))
    section.uvarint(len(copies))
    for position in copies:
        entry = entries[position]
        if entry.aux_ivv is None or entry.aux_value is None:
            raise SnapshotError(
                f"item {entry.name!r} claims an auxiliary copy but its "
                "auxiliary IVV or value is missing"
            )
        section.uvarint(position)
        section.vv("aux", entry.aux_ivv)
        section.bytes_(entry.aux_value)
    _block(body, section.buf)
    del section.buf[:]
    section.uvarint(len(node.aux_log))
    for record in node.aux_log:
        section.uvarint(index[record.item])
        section.vv("auxlog", record.pre_ivv)
        encode_wire_op(section, record.op)
    _block(body, section.buf)
    return frame_record(body)


def decode_checkpoint(data: bytes) -> tuple[int, Snapshot]:
    """Checkpoint file contents back to ``(lsn, snapshot)``: decoded,
    not yet validated.  Raises :class:`SnapshotError`."""
    bodies, valid_length = WriteAheadLog.scan(data)
    if len(bodies) != 1 or valid_length != len(data):
        if data.startswith(_TEXT_HEADER):
            raise SnapshotError(
                "text checkpoint (a 'checkpoint LSN' header) written by an "
                "earlier release; this one reads binary checkpoints only — "
                "empty the data directory and restart, and the node "
                "re-seeds from a peer by anti-entropy"
            )
        raise SnapshotError(
            f"malformed checkpoint header or body: {len(data)} bytes are "
            "not one intact CRC-framed record (torn write or bit rot)"
        )
    try:
        return _decode_body(bodies[0])
    except ValueError as exc:  # WireFormatError, UnicodeDecodeError, ...
        raise SnapshotError(
            f"CRC-valid checkpoint body failed to decode: {exc}"
        ) from exc


def load_node(
    data: bytes,
    node_class: type[EpidemicNode] = EpidemicNode,
    **node_kwargs: object,
) -> tuple[int, EpidemicNode]:
    """Checkpoint file contents to ``(lsn, node)``.  Checkpoint bytes are
    disk state, like WAL bytes: the decoded snapshot is validated before
    it becomes a node (R13)."""
    lsn, snapshot = decode_checkpoint(data)
    snapshot = validate_snapshot(snapshot)
    return lsn, rebuild_node(snapshot, node_class, **node_kwargs)


def validate_snapshot(snapshot: Snapshot) -> Snapshot:
    """Trust-boundary check of a decoded snapshot, before any node
    exists.  Every column is as long as the item count says, every
    index names an item, every vector fits the replica set and the
    component cap, each log component holds one record per item in
    strictly increasing seqno order, and the DBVV equals the IVV column
    sums (rule 3's invariant — unless a conflict flag is set, which
    freezes that accounting exactly as in
    ``EpidemicNode.check_invariants``).  Registered as an R13
    sanitizer; raises :class:`SnapshotError`.
    """
    n = snapshot.n_nodes
    if not 0 < n <= MAX_REPLICA_SET:
        raise SnapshotError(
            f"replica set of {n} nodes outside 1..{MAX_REPLICA_SET}"
        )
    if not 0 <= snapshot.node_id < n:
        raise SnapshotError(
            f"node id {snapshot.node_id} outside the replica set of {n}"
        )
    names = snapshot.names
    items = len(names)
    ivvs = snapshot.ivvs
    try:
        for name in names:
            validate_item_name(name)
        validate_version_vector(snapshot.dbvv, n, "DBVV")
        for _index, ivv, value in snapshot.aux:
            validate_version_vector(ivv, n, "auxiliary IVV")
            validate_value(value)
        for _index, ivv, _op in snapshot.aux_log:
            validate_version_vector(ivv, n, "auxiliary-log IVV")
    except ValidationError as exc:
        raise SnapshotError(f"invalid snapshot: {exc}") from exc
    if len(set(names)) != items:
        raise SnapshotError("snapshot names an item twice")
    if len(ivvs) != items * n:
        raise SnapshotError(
            f"IVV column holds {len(ivvs)} components, not {items} items "
            f"x {n} nodes"
        )
    if max(ivvs, default=0) > MAX_VV_COMPONENT:
        raise SnapshotError(f"IVV component exceeds cap {MAX_VV_COMPONENT}")
    if len(snapshot.values) != items or len(snapshot.conflicts) != items:
        raise SnapshotError(
            "value or conflict column length is not the item count"
        )
    if max(map(len, snapshot.values), default=0) > MAX_VALUE_LEN:
        raise SnapshotError(f"value exceeds cap {MAX_VALUE_LEN}")
    if snapshot.conflicts.translate(None, b"\x00\x01"):
        raise SnapshotError("conflict flag other than 0 or 1")
    previous = -1
    for origin, indexes, seqnos in snapshot.log:
        if not previous < origin < n:
            raise SnapshotError(
                f"log component {origin} repeated, out of order or outside "
                f"the replica set of {n}"
            )
        previous = origin
        if len(indexes) != len(seqnos) or max(indexes, default=0) >= items:
            raise SnapshotError(
                f"log component {origin} names an item index past the "
                f"{items} items"
            )
        if len(set(indexes)) != len(indexes):
            raise SnapshotError(
                f"log component {origin} holds two records for one item"
            )
        if seqnos and (
            seqnos[0] < 1 or not all(map(lt, seqnos, seqnos[1:]))
        ):
            raise SnapshotError(
                f"log component {origin} seqnos are not strictly increasing"
            )
    aux_items = [index for index, _ivv, _value in snapshot.aux]
    if len(set(aux_items)) != len(aux_items):
        raise SnapshotError("snapshot holds two auxiliary copies of one item")
    for index, _ivv, _payload in (*snapshot.aux, *snapshot.aux_log):
        if index >= items:
            raise SnapshotError(
                f"auxiliary entry names item index {index} past the {items} items"
            )
    if 1 not in snapshot.conflicts:
        sums = [sum(ivvs[k::n]) for k in range(n)]
        if sums != list(snapshot.dbvv):
            raise SnapshotError(
                f"DBVV {list(snapshot.dbvv)} is not the IVV column sums {sums}"
            )
    return snapshot


def rebuild_node(
    snapshot: Snapshot,
    node_class: type[EpidemicNode] = EpidemicNode,
    **node_kwargs,
) -> EpidemicNode:
    """The node a snapshot that passed :func:`validate_snapshot`
    describes, bit-identical to the one it was taken from.

    Snapshot restore is the one sanctioned writer of core state outside
    :mod:`repro.core` (R4), and ``after_restore`` then re-derives the
    state nothing persists.
    """
    n = snapshot.n_nodes
    names = snapshot.names
    node = node_class(snapshot.node_id, n, names, **node_kwargs)
    node.dbvv.merge_from(snapshot.dbvv)  # lint: skip=R4
    ivvs = snapshot.ivvs
    for start, entry, value, conflict in zip(
        range(0, len(ivvs), n), node.store, snapshot.values, snapshot.conflicts
    ):
        entry.ivv = VersionVector.from_counts(ivvs[start:start + n])  # lint: skip=R4
        entry.value = value
        entry.in_conflict = conflict == 1
    for index, ivv, value in snapshot.aux:
        node.store[names[index]].install_auxiliary(value, ivv)
    for origin, indexes, seqnos in snapshot.log:
        for index, seqno in zip(indexes, seqnos):
            node.log.add(origin, names[index], seqno)  # lint: skip=R4
    for index, ivv, op in snapshot.aux_log:
        node.aux_log.append(names[index], ivv, op)
    node.after_restore()
    return node


def _decode_body(body: bytes) -> tuple[int, Snapshot]:
    dec = Decoder(_CODEC, 0, 0, body)
    lsn = dec.uvarint()
    node_id = dec.uvarint()
    n_nodes = dec.uvarint()
    dbvv = dec.vv("dbvv")
    items = dec.uvarint()
    # Every count below is checked against the bytes of its own block
    # (``_column``) before anything is sized from it.
    blocks = [dec.bytes_() for _block in range(7)]
    if dec.pos != len(body):
        raise SnapshotError(
            f"{len(body) - dec.pos} trailing byte(s) after the checkpoint blocks"
        )
    names_block, ivv_block, values_block, conflicts, log_block, *sections = blocks
    head = 4 * items
    name_lengths = _column("I", names_block[:head], items, "name length")
    names_text = names_block[head:].decode("utf-8")
    if sum(name_lengths) != len(names_text):
        raise SnapshotError("name lengths do not add up to the name block")
    names = _split(names_text, name_lengths, 0)
    value_lengths = _column("I", values_block[:head], items, "value length")
    if head + sum(value_lengths) != len(values_block):
        raise SnapshotError("value lengths do not add up to the value block")
    values = _split(values_block, value_lengths, head)
    ivvs = _column("Q", ivv_block, items * n_nodes, "IVV")
    head = 4 * n_nodes
    per_origin = _column("I", log_block[:head], n_nodes, "log count")
    total = sum(per_origin)
    indexes = _column("I", log_block[head:head + 4 * total], total, "log index")
    seqnos = _column("Q", log_block[head + 4 * total:], total, "log seqno")
    log: list[tuple[int, Sequence[int], Sequence[int]]] = []
    start = 0
    for origin, records in enumerate(per_origin):
        if records:
            end = start + records
            log.append((origin, indexes[start:end], seqnos[start:end]))
            start = end
    aux = _entries(
        sections[0], lambda entry: (entry.uvarint(), entry.vv("aux"), entry.bytes_())
    )
    aux_log = _entries(
        sections[1],
        lambda entry: (entry.uvarint(), entry.vv("auxlog"), decode_wire_op(entry)),
    )
    return lsn, Snapshot(
        node_id, n_nodes, dbvv, names, ivvs, values, conflicts, log, aux, aux_log
    )


def _block(body: bytearray, *parts: bytes) -> None:
    write_uvarint(body, sum(map(len, parts)))
    for part in parts:
        body += part


def _words(typecode: str, values: Iterable[int]) -> bytes:
    column = array(typecode, values)
    if _BIG_ENDIAN:
        column.byteswap()
    return column.tobytes()


def _column(typecode: str, block: bytes, length: int, what: str) -> array[int]:
    column = array(typecode)
    if len(block) != length * column.itemsize:
        raise SnapshotError(
            f"{what} column holds {len(block)} bytes, not {length} entries"
        )
    column.frombytes(block)
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def _split(blob: AnyStr, lengths: array[int], start: int) -> list[AnyStr]:
    """``blob`` cut into consecutive pieces of ``lengths`` from ``start``."""
    offsets = list(accumulate(lengths, initial=start))
    return list(map(blob.__getitem__, map(slice, offsets, islice(offsets, 1, None))))


def _entries(block: bytes, read: Callable[[Decoder], _Entry]) -> list[_Entry]:
    """A ``uvarint(count)``-prefixed section of ``read`` entries that
    fills ``block`` exactly."""
    section = Decoder(_CODEC, 0, 0, block)
    n_entries = section.uvarint()
    if n_entries > len(block):
        raise SnapshotError(
            f"section count {n_entries} runs past its {len(block)} bytes"
        )
    entries = [read(section) for _entry in range(n_entries)]
    if section.pos != len(block):
        raise SnapshotError(
            f"{len(block) - section.pos} trailing byte(s) in a section"
        )
    return entries
