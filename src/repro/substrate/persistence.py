"""Protocol-state snapshots: one restore path, and a text debug dump.

The failure experiments assume a fail-stop model: a crashed server
loses nothing and resumes from its durable state (paper section 8.2
talks about servers being "repaired").  A node's full *protocol* state
— the DBVV, every IVV, the log vector, auxiliary copies, and the
auxiliary log — decodes into a :class:`Snapshot`, is checked by
:func:`validate_snapshot` before any node exists, and becomes a node
through :func:`rebuild_node`, the one writer of core state outside
:mod:`repro.core` (lint rule R4's sanctioned exception).

Two formats decode into a :class:`Snapshot`:

* the binary checkpoint a durable node writes
  (:mod:`repro.durable.checkpoint`: columns under the WAL's CRC
  framing);
* the line-oriented text format here (:func:`dump_node` /
  :func:`load_node`, hex-encoded bytes), kept as a diffable debug dump
  and as the simulator's state fingerprint.  It was chosen over pickle
  deliberately: stable across Python versions, and it cannot execute
  code on load.  A dump must end with its ``[end]`` line, so a
  truncated one is refused rather than loaded as a smaller node.

Every failure on the way in — a cut, a malformed line, a forged count —
is a :class:`SnapshotError`.  Operations in the auxiliary log are
text-encoded by a small registry covering the operation types in
:mod:`repro.substrate.operations`.
"""

from __future__ import annotations

import operator
import os
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.core.node import EpidemicNode
from repro.core.validate import (
    MAX_REPLICA_SET,
    MAX_VALUE_LEN,
    MAX_VV_COMPONENT,
    validate_item_name,
    validate_value,
    validate_version_vector,
)
from repro.core.version_vector import VersionVector
from repro.errors import ReplicationError, ValidationError
from repro.substrate.operations import (
    Append,
    BytePatch,
    CounterAdd,
    Put,
    Truncate,
    UpdateOperation,
)

__all__ = [
    "Snapshot",
    "SnapshotError",
    "atomic_write_bytes",
    "encode_op",
    "decode_op",
    "dump_node",
    "load_node",
    "rebuild_node",
    "save_node",
    "restore_node",
    "validate_snapshot",
]

FORMAT_VERSION = 1
_HEADER = f"epidemic-node-snapshot v{FORMAT_VERSION}"


class SnapshotError(ReplicationError):
    """A snapshot could not be encoded or decoded."""


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


def encode_op(op: UpdateOperation) -> str:
    """One-line text encoding of an update operation."""
    if isinstance(op, Put):
        return f"put {op.value.hex()}"
    if isinstance(op, Append):
        return f"append {op.data.hex()}"
    if isinstance(op, BytePatch):
        return f"patch {op.offset} {op.data.hex()}"
    if isinstance(op, Truncate):
        return f"truncate {op.length}"
    if isinstance(op, CounterAdd):
        return f"counter {op.delta}"
    raise SnapshotError(f"cannot encode operation type {type(op).__name__}")


def decode_op(text: str) -> UpdateOperation:
    """Inverse of :func:`encode_op`."""
    kind, _, rest = text.partition(" ")
    try:
        if kind == "put":
            return Put(bytes.fromhex(rest))
        if kind == "append":
            return Append(bytes.fromhex(rest))
        if kind == "patch":
            offset_text, _, data_hex = rest.partition(" ")
            offset = int(offset_text)
            if offset < 0:
                # int() parses "-3" happily; a negative offset is not a
                # representable operation, it is a corrupt record that
                # would silently damage the value on replay.
                raise SnapshotError(
                    f"negative patch offset in operation line: {text!r}"
                )
            return BytePatch(offset, bytes.fromhex(data_hex))
        if kind == "truncate":
            length = int(rest)
            if length < 0:
                raise SnapshotError(
                    f"negative truncate length in operation line: {text!r}"
                )
            return Truncate(length)
        if kind == "counter":
            return CounterAdd(int(rest))
    except (ValueError, TypeError) as exc:
        raise SnapshotError(f"malformed operation line: {text!r}") from exc
    raise SnapshotError(f"unknown operation kind: {kind!r}")


def _vv_text(vv: VersionVector) -> str:
    return ",".join(str(c) for c in vv)


def _vv_parse(text: str) -> VersionVector:
    try:
        return VersionVector.from_counts(int(c) for c in text.split(","))
    except ValueError as exc:
        raise SnapshotError(f"malformed version vector: {text!r}") from exc


def dump_node(node: EpidemicNode) -> str:
    """Serialize a node's complete protocol state to text.

    Covers everything :class:`~repro.core.node.EpidemicNode` owns.  The
    conflict reporter's history and the counters are measurement state,
    not protocol state, and are not persisted (a repaired server starts
    with empty telemetry).
    """
    lines: list[str] = [
        _HEADER,
        f"node {node.node_id} {node.n_nodes}",
        f"dbvv {_vv_text(node.dbvv)}",
        "[items]",
    ]
    for name in node.store.names():
        if " " in name or "\n" in name:
            raise SnapshotError(
                f"item name {name!r} contains whitespace; the snapshot "
                "format is space-delimited"
            )
    for entry in node.store:
        lines.append(
            f"item {entry.name} {_vv_text(entry.ivv)} {entry.value.hex()} "
            f"{1 if entry.in_conflict else 0}"
        )
        if entry.has_auxiliary:
            if entry.aux_ivv is None or entry.aux_value is None:
                # A bare assert here would vanish under `python -O` and
                # resurface as AttributeError on None.hex() below.
                raise SnapshotError(
                    f"item {entry.name!r} claims an auxiliary copy but "
                    "its auxiliary IVV or value is missing"
                )
            lines.append(
                f"aux {entry.name} {_vv_text(entry.aux_ivv)} "
                f"{entry.aux_value.hex()}"
            )
    lines.append("[log]")
    for origin in range(node.n_nodes):
        for record in node.log[origin]:
            lines.append(f"rec {origin} {record.seqno} {record.item}")
    lines.append("[auxlog]")
    for record in node.aux_log:
        lines.append(
            f"auxrec {record.item} {_vv_text(record.pre_ivv)} "
            f"{encode_op(record.op)}"
        )
    lines.append("[end]")
    return "\n".join(lines) + "\n"


def load_node(
    text: str,
    node_class: type[EpidemicNode] = EpidemicNode,
    **node_kwargs,
) -> EpidemicNode:
    """Rebuild a node from :func:`dump_node` output.

    ``node_class`` / ``node_kwargs`` allow restoring into the
    operation-shipping subclass; note a restored
    :class:`~repro.core.delta.DeltaEpidemicNode` starts with empty op
    histories (histories are a send-side optimization, rebuilt as new
    updates arrive — it simply serves whole values meanwhile).  A dump
    without its ``[end]`` line, or with any line that does not parse,
    raises :class:`SnapshotError`.
    """
    snapshot = validate_snapshot(_parse_text(text))
    return rebuild_node(snapshot, node_class, **node_kwargs)


def _parse_text(text: str) -> Snapshot:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("epidemic-node-snapshot"):
        raise SnapshotError("not an epidemic-node snapshot")
    if lines[0] != _HEADER:
        raise SnapshotError(f"unsupported snapshot version: {lines[0]!r}")
    if lines[-1] != "[end]":
        raise SnapshotError("truncated snapshot: no [end] line")
    try:
        return _parse_sections(lines[1:-1])
    except (ValueError, IndexError, OverflowError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from exc


def _parse_sections(lines: list[str]) -> Snapshot:
    tag, node_id_text, n_nodes_text = lines[0].split(" ")
    dbvv_tag, dbvv_text = lines[1].split(" ")
    if (tag, dbvv_tag) != ("node", "dbvv"):
        raise SnapshotError(f"malformed header lines: {lines[:2]!r}")
    n_nodes = int(n_nodes_text)
    names: list[str] = []
    index: dict[str, int] = {}
    ivvs = array("Q")
    values: list[bytes] = []
    conflicts = bytearray()
    log: list[tuple[int, Sequence[int], Sequence[int]]] = []
    indexes: list[int] = []
    seqnos: list[int] = []
    aux: list[tuple[int, VersionVector, bytes]] = []
    aux_log: list[tuple[int, VersionVector, UpdateOperation]] = []

    def index_of(name: str) -> int:
        position = index.get(name)
        if position is None:
            raise SnapshotError(f"snapshot line names unknown item {name!r}")
        return position

    sections = iter(("[items]", "[log]", "[auxlog]"))
    section = ""
    for line in lines[2:]:
        if line.startswith("["):
            if line != next(sections, None):
                raise SnapshotError(f"unexpected section line {line!r}")
            section = line
            continue
        kind, _, rest = line.partition(" ")
        if section == "[items]" and kind == "item":
            name, ivv_text, value_hex, flag = rest.split(" ")
            counts = ivv_text.split(",")
            if len(counts) != n_nodes or flag not in ("0", "1"):
                raise SnapshotError(f"malformed item line: {line!r}")
            index[name] = len(names)
            names.append(name)
            ivvs.extend(map(int, counts))
            values.append(bytes.fromhex(value_hex))
            conflicts.append(flag == "1")
        elif section == "[items]" and kind == "aux":
            name, ivv_text, value_hex = rest.split(" ")
            aux.append((index_of(name), _vv_parse(ivv_text), bytes.fromhex(value_hex)))
        elif section == "[log]" and kind == "rec":
            origin_text, seqno_text, name = rest.split(" ")
            origin = int(origin_text)
            if not log or log[-1][0] != origin:
                indexes, seqnos = [], []
                log.append((origin, indexes, seqnos))
            indexes.append(index_of(name))
            seqnos.append(int(seqno_text))
        elif section == "[auxlog]" and kind == "auxrec":
            name, ivv_text, op_text = rest.split(" ", 2)
            aux_log.append((index_of(name), _vv_parse(ivv_text), decode_op(op_text)))
        else:
            raise SnapshotError(f"unexpected line in {section or 'header'}: {line!r}")
    if section != "[auxlog]":
        raise SnapshotError("snapshot is missing a section")
    return Snapshot(
        int(node_id_text), n_nodes, _vv_parse(dbvv_text), names, ivvs,
        values, bytes(conflicts), log, aux, aux_log,
    )


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
            seqnos[0] < 1 or not all(map(operator.lt, seqnos, seqnos[1:]))
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
    :mod:`repro.core` (R4): both formats rebuild through here, and
    ``after_restore`` then re-derives the state nothing persists.
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


def atomic_write_bytes(path: str | Path, data: bytes, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` atomically: temp file in the same
    directory, flush (+ optional fsync), then ``os.replace``.

    A crash at any point leaves either the previous file intact or the
    fully written new one — never a torn mix.  ``os.replace`` is atomic
    only within one filesystem, which the same-directory temp file
    guarantees.  The WAL checkpoints (:mod:`repro.durable`) use the
    same helper, so every durable artifact shares one torn-write story.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, target)
    finally:
        # A failure between write and replace must not litter the data
        # directory with a stale temp file a later write would trust.
        if tmp.exists():
            tmp.unlink()
    if fsync:
        # The rename itself must survive a power cut: fsync the directory.
        try:
            dir_fd = os.open(target.parent, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds (e.g. Windows)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def save_node(node: EpidemicNode, path: str | Path) -> None:
    """Write a node snapshot to disk (atomically: a crash mid-write
    leaves the previous good snapshot in place, not a torn file)."""
    atomic_write_bytes(path, dump_node(node).encode("utf-8"))


def restore_node(
    path: str | Path,
    node_class: type[EpidemicNode] = EpidemicNode,
    **node_kwargs,
) -> EpidemicNode:
    """Read a node snapshot from disk."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"snapshot {path} is not UTF-8 text") from exc
    return load_node(text, node_class, **node_kwargs)
