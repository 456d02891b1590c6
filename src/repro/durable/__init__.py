"""Durable storage substrate: write-ahead log + checkpoint recovery.

The paper's fail-stop model (section 8.2) assumes a "repaired" server
resumes from durable state.  Until this package, the reproduction faked
that: crash/recovery restored from in-memory objects that a real
deployment would have lost with the process.  ``repro.durable`` makes
the assumption real:

* :mod:`~repro.durable.wal` — the append-only log file: LEB128
  length-prefixed, CRC32-guarded records, group-commit fsync batching,
  and the torn-tail truncation rule;
* :mod:`~repro.durable.records` — the record codec: the five
  state-changing node inputs (update / accept / oob / resolve /
  expand) and the identity record that opens every WAL file,
  wire-encoded with LSNs for checkpoint gating;
* :mod:`~repro.durable.checkpoint` — the checkpoint file: the whole
  protocol state as one WAL-framed record laid out by column, validated
  before it becomes a node;
* :mod:`~repro.durable.journal` — :class:`~repro.durable.journal.
  NodeJournal`, one node's checkpoint + WAL + recovery engine.

Both drivers consume it: ``ClusterSimulation(durable=True)`` (or
``REPRO_DURABLE=1``) journals every DBVV-protocol node and rebuilds
recovering nodes from disk instead of trusting the in-memory object,
and ``repro.net`` nodes given ``--data-dir`` journal every accepted
update and recover on restart.  See docs/PROTOCOL.md section 14 for the
on-disk format.
"""

from __future__ import annotations

from repro.durable.journal import NodeJournal
from repro.durable.records import (
    WalAccept,
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
)
from repro.durable.wal import WriteAheadLog

__all__ = [
    "NodeJournal",
    "WalAccept",
    "WalExpand",
    "WalIdentity",
    "WalOob",
    "WalRecord",
    "WalResolve",
    "WalUpdate",
    "WriteAheadLog",
    "apply_record",
    "decode_record",
    "encode_accept",
    "encode_record",
]
