"""The append-only write-ahead log file.

One WAL file is a sequence of self-delimiting records::

    record := uvarint(len(body)) u32le(crc32(body)) body

The body is opaque at this layer (the record codec lives in
:mod:`repro.durable.records`); this module owns exactly the two
durability mechanics the format exists for:

* **Group-commit fsync batching.**  :meth:`WriteAheadLog.append` only
  buffers; :meth:`WriteAheadLog.commit` flushes and (when enabled)
  fsyncs once for everything appended since the last commit.  A driver
  that journals several records per logical transaction — an accepted
  propagation reply plus its intra-node replay, say — pays one disk
  barrier, not one per record.
* **The torn-tail rule.**  A crash can cut the final record anywhere:
  mid-length-prefix, mid-CRC, mid-body.  :meth:`WriteAheadLog.scan`
  accepts the longest prefix of intact records (length readable, body
  complete, CRC matching) and reports where it ends;
  :meth:`WriteAheadLog.open_and_repair` truncates the file there, so an
  interrupted write can never be half-replayed or poison later appends.

A record that is *complete but wrong* — CRC matches, body present, but
the length prefix is malformed beyond what truncation can produce — is
indistinguishable from a torn tail at this layer and is treated as one;
semantic corruption inside a CRC-valid body is the record codec's
business (:class:`~repro.errors.WALError`).
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import IO

from repro.errors import WireFormatError
from repro.wire.varint import read_uvarint, write_uvarint

__all__ = ["WriteAheadLog", "frame_record"]

_CRC_BYTES = 4


def frame_record(body: bytes) -> bytearray:
    """One record as it lies on disk: ``uvarint(len) u32le(crc32) body``.

    The checkpoint file is exactly one such frame, so torn writes and
    bit rot have one story for both files.
    """
    frame = bytearray()
    write_uvarint(frame, len(body))
    frame += zlib.crc32(body).to_bytes(_CRC_BYTES, "little")
    frame += body
    return frame


class WriteAheadLog:
    """One append-only log file with CRC-guarded, length-prefixed records."""

    __slots__ = (
        "path",
        "fsync",
        "records_appended",
        "bytes_appended",
        "fsyncs",
        "pending_records",
        "torn_bytes_dropped",
        "size",
        "_fh",
    )

    def __init__(self, path: str | Path, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        #: Records appended since the last :meth:`commit` (i.e. not yet
        #: guaranteed durable).
        self.pending_records = 0
        self.torn_bytes_dropped = 0
        #: Bytes of intact records in the file, as far as this handle
        #: knows: set by :meth:`open_and_repair`, grown by
        #: :meth:`append`, zeroed by :meth:`reset` (0 for a file this
        #: handle never read).
        self.size = 0
        self._fh: IO[bytes] | None = None

    # -- writing --------------------------------------------------------------

    def append(self, body: bytes) -> None:
        """Buffer one record; durable only after the next :meth:`commit`."""
        frame = frame_record(body)
        self._handle().write(frame)
        self.records_appended += 1
        self.bytes_appended += len(frame)
        self.size += len(frame)
        self.pending_records += 1

    def commit(self) -> None:
        """Group commit: one flush (+ fsync) for every pending append."""
        if self._fh is None:
            return
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
            self.fsyncs += 1
        self.pending_records = 0

    def reset(self) -> None:
        """Truncate the log to empty (after a checkpoint absorbed it)."""
        fh = self._handle()
        fh.truncate(0)
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())
            self.fsyncs += 1
        self.pending_records = 0
        self.size = 0

    def close(self) -> None:
        if self._fh is not None:
            self.commit()
            self._fh.close()
            self._fh = None

    def _handle(self) -> IO[bytes]:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
        return self._fh

    # -- reading --------------------------------------------------------------

    @staticmethod
    def scan(data: bytes) -> tuple[list[bytes], int]:
        """Parse record bodies out of raw log bytes.

        Returns ``(bodies, valid_length)`` where ``valid_length`` is the
        byte offset at which the longest intact-record prefix ends; any
        bytes past it are a torn tail (or trailing corruption this layer
        cannot tell apart from one).
        """
        bodies: list[bytes] = []
        pos = 0
        while pos < len(data):
            try:
                length, crc_start = read_uvarint(data, pos)
            except WireFormatError:
                break  # torn mid-length-prefix
            body_start = crc_start + _CRC_BYTES
            end = body_start + length
            if end > len(data):
                break  # torn mid-CRC or mid-body
            body = data[body_start:end]
            crc = int.from_bytes(data[crc_start:body_start], "little")
            if zlib.crc32(body) != crc:
                break  # torn inside the CRC'd body, or bit rot
            bodies.append(body)
            pos = end
        return bodies, pos

    def open_and_repair(self) -> list[bytes]:
        """Read every intact record and truncate any torn tail in place.

        Leaves the file ending exactly at the last intact record, so
        subsequent :meth:`append` calls extend a well-formed log.
        """
        self.close()
        self.size = 0
        if not self.path.exists():
            return []
        data = self.path.read_bytes()
        bodies, valid_length = self.scan(data)
        self.size = valid_length
        if valid_length < len(data):
            self.torn_bytes_dropped += len(data) - valid_length
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_length)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
                    self.fsyncs += 1
        return bodies
