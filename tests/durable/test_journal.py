"""Tests for NodeJournal: record/commit/checkpoint/recover mechanics."""

import dataclasses

import pytest

from repro.core.messages import PropagationReply
from repro.core.node import EpidemicNode
from repro.core.session import PullSession, respond
from repro.durable import (
    NodeJournal,
    WalAccept,
    WalUpdate,
    decode_record,
    encode_record,
)
from repro.durable import journal as journal_module
from repro.errors import ValidationError, WALError
from repro.substrate.operations import Append, Put
from repro.substrate.persistence import SnapshotError, dump_node
from repro.wire import WireCodec

ITEMS = ["a", "b"]


def journaled_workload(journal: NodeJournal) -> EpidemicNode:
    """Drive a node through all five record kinds, journaling each."""
    node = EpidemicNode(0, 3, ITEMS)
    peer = EpidemicNode(1, 3, ITEMS)

    node.update("a", Put(b"hello"))
    journal.record_update("a", Put(b"hello"))
    journal.commit(node)

    peer.update("b", Put(b"peer-data"))
    pull = PullSession(node)
    answer = respond(peer, pull.request())
    pull.conclude(answer)
    assert isinstance(answer, PropagationReply)
    journal.record_accept(answer)
    journal.commit(node)

    peer.update("a", Put(b"hot"))
    request = node.make_oob_request("a")
    reply = peer.handle_oob_request(request)
    node.accept_oob(reply)
    journal.record_oob(reply)
    journal.commit(node)

    node.update("a", Append(b"+tail"))
    journal.record_update("a", Append(b"+tail"))
    journal.commit(node)
    return node


class TestRecordCodec:
    def test_roundtrip_carries_the_lsn(self):
        body = encode_record(42, WalUpdate("a", Put(b"v")))
        lsn, record = decode_record(body)
        assert lsn == 42
        assert record == WalUpdate("a", Put(b"v"))

    def test_crc_valid_garbage_body_raises_walerror(self, tmp_path):
        journal = NodeJournal(tmp_path)
        journal.wal.append(b"\xfe\xfd semantic garbage")
        journal.wal.commit()
        journal.close()
        fresh = NodeJournal(tmp_path)
        with pytest.raises(WALError):
            fresh.recover(EpidemicNode, 0, 3, ITEMS)

    def test_trailing_bytes_in_body_raise_walerror(self):
        body = encode_record(1, WalUpdate("a", Put(b"v"))) + b"\x00"
        with pytest.raises(WALError, match="trailing"):
            decode_record(body)

    def test_accept_record_embeds_the_v2_reply_body(self):
        """LSN · kind 2 · type id 9 · the reply exactly as a delta-free
        link would frame it: the record shrank with the wire format."""
        node, peer = EpidemicNode(0, 2, ITEMS), EpidemicNode(1, 2, ITEMS)
        for name, value in (("a", b"xy"), ("b", b"z"), ("a", b"xyz")):
            peer.update(name, Put(value))
        reply = respond(peer, PullSession(node).request())
        body = encode_record(2, WalAccept(reply))
        frame = WireCodec(delta_vv=False).encode(1, 0, reply)
        assert body == bytes([2, 2]) + frame[1:]
        assert body[2] == 9
        assert len(body) < len(PARENT_ACCEPT_RECORD)
        assert decode_record(body) == (2, WalAccept(reply))


#: LSN 2's body as the parent commit journaled it: the adoption, by
#: replica 0 of a two-node {a, b} database, of replica 1's answer after
#: ``a := xy; b := z; a := xyz`` — kind 2, then a type-id-4 (v1) reply.
PARENT_ACCEPT_RECORD = bytes.fromhex(
    "0202040102000201620201610302010162017a000200010101610378797a00020002"
)


class TestParentWrittenJournal:
    """A v1 journal is refused loudly, never half-read.  (Upgrading is a
    clean shutdown — it folds the WAL into a checkpoint — then a start.)"""

    def test_parent_accept_record_is_an_unknown_type_id(self):
        with pytest.raises(WALError, match="unknown wire message type id 4"):
            decode_record(PARENT_ACCEPT_RECORD)

    def test_recovery_stops_at_it_and_replays_nothing_after(
        self, tmp_path, monkeypatch
    ):
        journal = NodeJournal(tmp_path, checkpoint_every=0)
        journal.record_update("b", Put(b"before"))
        journal.wal.append(PARENT_ACCEPT_RECORD)
        journal._next_lsn += 1
        journal.record_update("b", Put(b"after"))
        journal.commit()
        journal.close()

        applied = []
        monkeypatch.setattr(
            journal_module,
            "apply_record",
            lambda node, record: applied.append(record),
        )
        fresh = NodeJournal(tmp_path)
        with pytest.raises(WALError, match="type id 4"):
            fresh.recover(EpidemicNode, 0, 2, ITEMS)
        assert applied == [WalUpdate("b", Put(b"before"))]
        fresh.close()


class TestForgedAcceptRecord:
    """The log is disk state: an accept record whose reply ships an item
    twice (S is not a set) parses and passes its CRC, and must still be
    refused before it touches the node."""

    def test_recovery_refuses_it_and_replays_nothing_after(
        self, tmp_path, monkeypatch
    ):
        peer = EpidemicNode(1, 2, ITEMS)
        peer.update("a", Put(b"from-1"))
        reply = respond(peer, PullSession(EpidemicNode(0, 2, ITEMS)).request())
        forged = dataclasses.replace(reply, items=reply.items * 2)

        journal = NodeJournal(tmp_path, checkpoint_every=0)
        journal.record_update("b", Put(b"before"))
        journal.record_accept(forged)
        journal.record_update("b", Put(b"after"))
        journal.commit()
        journal.close()

        applied = []
        monkeypatch.setattr(
            journal_module,
            "apply_record",
            lambda node, record: applied.append(record),
        )
        fresh = NodeJournal(tmp_path)
        with pytest.raises(ValidationError, match="ships item 'a' more than once"):
            fresh.recover(EpidemicNode, 0, 2, ITEMS)
        assert applied == [WalUpdate("b", Put(b"before"))]
        fresh.close()


class TestRecovery:
    def test_recover_replays_the_journal_exactly(self, tmp_path):
        journal = NodeJournal(tmp_path, checkpoint_every=0)
        node = journaled_workload(journal)
        journal.close()
        fresh = NodeJournal(tmp_path)
        recovered = fresh.recover(EpidemicNode, 0, 3, ITEMS)
        assert dump_node(recovered) == dump_node(node)
        recovered.check_invariants()
        assert fresh.records_replayed == 4
        assert fresh.records_skipped == 0

    def test_empty_directory_recovers_a_fresh_node(self, tmp_path):
        journal = NodeJournal(tmp_path)
        assert not journal.has_state
        recovered = journal.recover(EpidemicNode, 2, 5, ITEMS)
        assert dump_node(recovered) == dump_node(EpidemicNode(2, 5, ITEMS))

    def test_has_state_after_first_commit(self, tmp_path):
        journal = NodeJournal(tmp_path)
        journal.record_update("a", Put(b"v"))
        journal.commit()
        assert journal.has_state

    def test_recovered_journal_resumes_the_lsn_sequence(self, tmp_path):
        journal = NodeJournal(tmp_path, checkpoint_every=0)
        node = journaled_workload(journal)
        journal.close()
        fresh = NodeJournal(tmp_path, checkpoint_every=0)
        recovered = fresh.recover(EpidemicNode, 0, 3, ITEMS)
        recovered.update("b", Append(b"!"))
        fresh.record_update("b", Append(b"!"))
        fresh.commit(recovered)
        fresh.close()
        final = NodeJournal(tmp_path).recover(EpidemicNode, 0, 3, ITEMS)
        node.update("b", Append(b"!"))
        assert dump_node(final) == dump_node(node)


class TestCheckpointing:
    def test_checkpoint_folds_the_wal(self, tmp_path):
        journal = NodeJournal(tmp_path, checkpoint_every=0)
        node = journaled_workload(journal)
        journal.checkpoint(node)
        assert journal.wal_path.read_bytes() == b""
        journal.close()
        fresh = NodeJournal(tmp_path)
        recovered = fresh.recover(EpidemicNode, 0, 3, ITEMS)
        assert dump_node(recovered) == dump_node(node)
        assert fresh.records_replayed == 0

    def test_auto_checkpoint_cadence(self, tmp_path):
        journal = NodeJournal(tmp_path, checkpoint_every=2)
        node = EpidemicNode(0, 2, ITEMS)
        for k in range(5):
            node.update("a", Put(f"v{k}".encode()))
            journal.record_update("a", Put(f"v{k}".encode()))
            journal.commit(node)
        assert journal.checkpoints == 2
        journal.close()
        fresh = NodeJournal(tmp_path)
        recovered = fresh.recover(EpidemicNode, 0, 2, ITEMS)
        assert dump_node(recovered) == dump_node(node)

    def test_commit_without_node_never_checkpoints(self, tmp_path):
        journal = NodeJournal(tmp_path, checkpoint_every=1)
        journal.record_update("a", Put(b"v"))
        journal.commit()
        assert journal.checkpoints == 0

    def test_stale_wal_records_are_skipped_by_lsn(self, tmp_path):
        # Simulate a crash between checkpoint-replace and WAL-truncate:
        # the snapshot is new but the log still holds every old record.
        journal = NodeJournal(tmp_path, checkpoint_every=0)
        node = journaled_workload(journal)
        journal.close()
        stale_wal = journal.wal_path.read_bytes()
        again = NodeJournal(tmp_path, checkpoint_every=0)
        node2 = again.recover(EpidemicNode, 0, 3, ITEMS)
        again.checkpoint(node2)
        again.close()
        journal.wal_path.write_bytes(stale_wal)
        fresh = NodeJournal(tmp_path)
        recovered = fresh.recover(EpidemicNode, 0, 3, ITEMS)
        assert fresh.records_skipped == 4
        assert fresh.records_replayed == 0
        assert dump_node(recovered) == dump_node(node)

    def test_malformed_checkpoint_header_rejected(self, tmp_path):
        journal = NodeJournal(tmp_path)
        journal.checkpoint_path.write_text("not a checkpoint\nbody\n")
        with pytest.raises(SnapshotError, match="checkpoint header"):
            journal.recover(EpidemicNode, 0, 3, ITEMS)

    def test_non_numeric_checkpoint_lsn_rejected(self, tmp_path):
        journal = NodeJournal(tmp_path)
        journal.checkpoint_path.write_text("checkpoint lsn nope\nbody\n")
        with pytest.raises(SnapshotError, match="checkpoint LSN"):
            journal.recover(EpidemicNode, 0, 3, ITEMS)
