"""Per-node durability engine: checkpoint + WAL + recovery.

One :class:`NodeJournal` owns one data directory::

    <data_dir>/checkpoint.snap   # one CRC-framed binary snapshot + its LSN
    <data_dir>/wal.log           # records with LSNs > any checkpoint's

Writing discipline (the drivers call this after every accepted input):

0. ``bind(node_id, items)`` (or ``recover``, which binds) names the
   replica the journal belongs to and builds its record codec over the
   item schema;
1. ``record_*`` appends the wire-encoded record to the WAL buffer —
   ``record_accept`` the reply's payload bytes as they arrived — after
   an identity record if the WAL file has none yet;
2. ``commit(node)`` group-commits (one flush/fsync for the batch) and
   folds the log into a fresh checkpoint when either trigger fires:
   ``checkpoint_every`` records since the last fold, or more WAL bytes
   since the last fold than the last checkpoint's size (floored at
   64 KiB).

The bytes trigger is what bounds recovery: the WAL a restart scans and
replays holds at most one snapshot's worth of bytes (or 64 KiB) plus
one commit's batch.  That is the durable analogue of the paper's log
bound (Theorem 2: the log is bounded by the state it describes, not by
history).  The record count alone does not bound it, since one
adoption record can carry the whole store.

Checkpointing is crash-safe by LSN gating: the snapshot is replaced
atomically (:func:`atomic_write_bytes`)
*before* the WAL is truncated, and every record carries its LSN — a
crash between the two steps leaves stale records in the log whose LSNs
the checkpoint already covers, and recovery skips them (replaying a
user update twice is not idempotent).

The checkpoint is the whole protocol state laid out by column under
the WAL's framing (:mod:`repro.durable.checkpoint`); the file name and
the ``checkpoint_every`` cadence are fixed points a deployment's data
directory relies on.

Recovery (:meth:`NodeJournal.recover`) is the paper's "repaired server"
made real: load the checkpoint (or start from a fresh replica) — a torn,
corrupt or text-format one, or one that names another node, another
item schema or fewer replicas, is a ``SnapshotError`` and nothing is
replayed — then truncate any torn WAL tail, check the WAL's identity
record against the same node and schema, replay the intact suffix, and
hand back a node whose ``after_restore`` has marked the content
digest stale and re-derived the per-origin ``log_gaps``.  The conflict
reporter's history is telemetry, not protocol state: like the snapshot
format, recovery starts it empty, and conflicts re-detected while
replaying post-checkpoint records are re-declared into the fresh
reporter.  A resolution, the one input that reads that history,
journals the lineage it merged (:mod:`repro.durable.records`), so a
fold may land anywhere.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Sequence

from repro.core.node import EpidemicNode
from repro.core.messages import OutOfBoundReply
from repro.core.version_vector import VersionVector
from repro.durable.checkpoint import SnapshotError, encode_checkpoint, load_node
from repro.durable.records import (
    WalExpand,
    WalIdentity,
    WalOob,
    WalRecord,
    WalResolve,
    WalUpdate,
    apply_record,
    decode_record,
    encode_accept,
    encode_record,
    validate_record,
)
from repro.durable.wal import WriteAheadLog
from repro.errors import DurabilityError, WALError
from repro.substrate.operations import UpdateOperation
from repro.wire.codec import WireCodec

__all__ = ["NodeJournal"]

_CHECKPOINT_NAME = "checkpoint.snap"
_WAL_NAME = "wal.log"
#: The bytes trigger's floor.  Without it a small store's checkpoint is
#: a few hundred bytes, so the WAL would outweigh it every couple of
#: commits, and each fold adds three fsyncs (the snapshot, its directory
#: entry, the WAL truncate) to the commit's own.
_MIN_FOLD_BYTES = 64 * 1024


class NodeJournal:
    """Durable state of one epidemic node: checkpoint file + WAL."""

    def __init__(
        self,
        data_dir: str | Path,
        fsync: bool = True,
        checkpoint_every: int = 256,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        #: Fold the WAL into a fresh checkpoint once this many records
        #: accumulate past the last one (0 disables auto-checkpointing,
        #: the bytes trigger included).
        self.checkpoint_every = checkpoint_every
        self.checkpoints = 0
        #: Size of the last checkpoint written or loaded; 0 until one
        #: exists, so a fresh replica's first large adoption folds.
        self.checkpoint_bytes = 0
        self.records_replayed = 0
        self.records_skipped = 0
        self.wal = WriteAheadLog(self.wal_path, fsync=fsync)
        #: The record codec and the identity record of the replica this
        #: journal belongs to, set by :meth:`bind` (``recover`` binds).
        self._bound: tuple[WireCodec, WalIdentity] | None = None
        self._next_lsn = 1
        self._since_checkpoint = 0
        #: Whether the WAL file already opens with its identity record.
        self._headed = False

    @property
    def codec(self) -> WireCodec:
        """The record codec, over the item schema :meth:`bind` named."""
        return self._binding()[0]

    def _binding(self) -> tuple[WireCodec, WalIdentity]:
        if self._bound is None:
            raise DurabilityError(
                f"journal {self.data_dir} is not bound to a replica: "
                "call recover() or bind() before journaling"
            )
        return self._bound

    @property
    def checkpoint_path(self) -> Path:
        return self.data_dir / _CHECKPOINT_NAME

    @property
    def wal_path(self) -> Path:
        return self.data_dir / _WAL_NAME

    @property
    def wal_bytes_since_checkpoint(self) -> int:
        """WAL bytes a restart would scan: every frame since the last
        fold, stale LSN-gated ones included (recovery scans them too)."""
        return self.wal.size

    @property
    def has_state(self) -> bool:
        """True when the data directory holds anything to recover from."""
        return self.checkpoint_path.exists() or (
            self.wal_path.exists() and self.wal_path.stat().st_size > 0
        )

    # -- journaling -----------------------------------------------------------

    def bind(self, node_id: int, items: Sequence[str]) -> None:
        """Bind the journal to replica ``node_id`` over ``items`` (the
        item schema, in store order): records address items by their
        position in the schema, and every WAL file opens with this
        identity."""
        codec = WireCodec(items, delta_vv=False)
        self._bound = (codec, WalIdentity(node_id, codec.schema.digest))

    def _open_record(self) -> tuple[WireCodec, int]:
        """The record codec and the next record's LSN, after the
        identity record when the WAL file has none yet (it takes an LSN
        of its own, but does not count toward ``checkpoint_every``)."""
        codec, identity = self._binding()
        if not self._headed:
            self._headed = True
            self.wal.append(encode_record(codec, self._next_lsn, identity))
            self._next_lsn += 1
        lsn = self._next_lsn
        self._next_lsn += 1
        self._since_checkpoint += 1
        return codec, lsn

    def record(self, record: WalRecord) -> None:
        """Append one record (buffered until the next :meth:`commit`)."""
        self.wal.append(encode_record(*self._open_record(), record))

    def record_update(self, item: str, op: UpdateOperation) -> None:
        self.record(WalUpdate(item, op))

    def record_accept(self, payload: bytes | memoryview) -> None:
        """Journal an adopted ``PropagationReply`` as the frame payload
        it arrived in (type id and body, no length prefix) — validated
        by the caller's ``conclude``, and not encoded again.  A caller
        with no frame passes ``journal.codec.encode_payload(reply)``."""
        _codec, lsn = self._open_record()
        self.wal.append(encode_accept(lsn, payload))

    def record_oob(self, reply: OutOfBoundReply) -> None:
        self.record(WalOob(reply))

    def record_resolve(
        self, item: str, value: bytes, lineage: VersionVector
    ) -> None:
        self.record(WalResolve(item, value, lineage))

    def record_expand(self, n_nodes: int) -> None:
        self.record(WalExpand(n_nodes))

    def commit(self, node: EpidemicNode | None = None) -> None:
        """Group-commit the pending batch; with ``node`` given, fold the
        WAL into a checkpoint when either trigger is due (see the module
        docstring)."""
        self.wal.commit()
        if node is None or self.checkpoint_every <= 0:
            return
        wal_bytes = self.wal.size
        if self._since_checkpoint >= self.checkpoint_every or (
            wal_bytes > _MIN_FOLD_BYTES and wal_bytes > self.checkpoint_bytes
        ):
            self.checkpoint(node)

    def checkpoint(self, node: EpidemicNode) -> None:
        """Snapshot ``node`` and truncate the WAL it absorbs.

        Order matters: replace the snapshot first (atomic), then reset
        the log.  Crashing in between leaves records the checkpoint
        already covers — recovery's LSN gate skips them.
        """
        snapshot = encode_checkpoint(self._next_lsn - 1, node)
        atomic_write_bytes(self.checkpoint_path, snapshot, fsync=self.fsync)
        self.checkpoint_bytes = len(snapshot)
        self.wal.reset()
        self._headed = False
        self._since_checkpoint = 0
        self.checkpoints += 1

    def close(self) -> None:
        self.wal.close()

    # -- recovery -------------------------------------------------------------

    def recover(
        self,
        node_class: type[EpidemicNode],
        node_id: int,
        n_nodes: int,
        items: Sequence[str],
        **node_kwargs: object,
    ) -> EpidemicNode:
        """Rebuild the node from disk: checkpoint base + WAL suffix.

        With no durable state yet, this returns a fresh
        ``node_class(node_id, n_nodes, items, **node_kwargs)`` — the
        constructor arguments describe the replica *at birth*; journaled
        ``expand`` records re-grow the replica set during replay.  The
        journal is bound to ``(node_id, items)`` (:meth:`bind`): a
        checkpoint that does not load, or that names another node id,
        other item names or order, or fewer than ``n_nodes`` replicas
        (more is legal after an ``expand``), raises
        :class:`~repro.durable.checkpoint.SnapshotError` before any WAL
        record is read, and a WAL that does not open with an identity
        record naming the same node and schema raises
        :class:`~repro.errors.WALError` before any record applies.  Torn
        WAL tails are truncated in place, so the journal is immediately
        appendable again.
        """
        self.bind(node_id, items)
        codec, head = self._binding()
        base_lsn = 0
        node: EpidemicNode | None = None
        if self.checkpoint_path.exists():
            snapshot = self.checkpoint_path.read_bytes()
            try:
                base_lsn, node = load_node(snapshot, node_class, **node_kwargs)
                same_items = list(node.store.names()) == list(items)
                if node.node_id != node_id or not same_items or node.n_nodes < n_nodes:
                    raise SnapshotError(
                        f"names node {node.node_id} of {node.n_nodes} over "
                        f"{len(node.store)} items, not node {node_id} of "
                        f"{n_nodes} over {len(items)} items"
                        + ("" if same_items else " in this order")
                        + "; a data directory belongs to one replica"
                    )
            except SnapshotError as exc:
                raise SnapshotError(f"{self.checkpoint_path}: {exc}") from exc
            self.checkpoint_bytes = len(snapshot)
        if node is None:
            node = node_class(node_id, n_nodes, list(items), **node_kwargs)
        last_lsn = base_lsn
        replayed = records = 0
        bodies = self.wal.open_and_repair()
        self._headed = bool(bodies)
        for position, body in enumerate(bodies):
            lsn, record = decode_record(codec, body)
            if isinstance(record, WalIdentity):
                if record != head:
                    raise WALError(
                        f"{self.wal_path} belongs to node {record.node_id} "
                        f"(schema digest {record.schema_digest.hex()}), not "
                        f"node {node_id} (schema digest "
                        f"{head.schema_digest.hex()}); a data directory "
                        "belongs to one replica"
                    )
            elif position == 0:
                raise WALError(
                    f"{self.wal_path} does not open with an identity record"
                )
            if lsn <= base_lsn:
                # Stale record from a crash between checkpoint-replace
                # and WAL-truncate; its effect is inside the snapshot.
                self.records_skipped += 1
                continue
            if not isinstance(record, WalIdentity):
                # The log is disk state, not process state: validate
                # every decoded record against the node as-of its replay
                # point (R13) before it mutates anything.
                record = validate_record(record, node)
                apply_record(node, record)
                records += 1
            # An identity record counts as replayed: its replay is the
            # check above.
            replayed += 1
            last_lsn = lsn
        self.records_replayed += replayed
        self._next_lsn = last_lsn + 1
        self._since_checkpoint = records
        return node


def atomic_write_bytes(path: str | Path, data: bytes, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` atomically: temp file in the same
    directory, flush (+ optional fsync), then ``os.replace``.

    A crash at any point leaves either the previous file intact or the
    fully written new one — never a torn mix.  ``os.replace`` is atomic
    only within one filesystem, which the same-directory temp file
    guarantees.
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
