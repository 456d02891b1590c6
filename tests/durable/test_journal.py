"""Tests for NodeJournal: record/commit/checkpoint/recover mechanics."""

import dataclasses

import pytest

from repro.core.messages import PropagationReply
from repro.core.node import EpidemicNode
from repro.core.session import PullSession, respond
from repro.core.version_vector import VersionVector
from repro.durable import (
    NodeJournal,
    WalAccept,
    WalIdentity,
    WalResolve,
    WalUpdate,
    decode_record,
    encode_accept,
    encode_record,
)
from repro.durable import journal as journal_module
from repro.durable.checkpoint import SnapshotError
from repro.durable.wal import frame_record
from repro.errors import DurabilityError, ValidationError, WALError
from repro.substrate.operations import Append, Put
from repro.wire import WireCodec
from tests.node_state import node_state

ITEMS = ["a", "b"]
#: A journal's record codec over ``ITEMS`` (what ``bind`` builds).
CODEC = WireCodec(ITEMS, delta_vv=False)
#: The bytes trigger's floor (``repro.durable.journal``).
FLOOR = 64 * 1024


def journaled_workload(journal: NodeJournal) -> EpidemicNode:
    """Drive a node through all five record kinds, journaling each."""
    node = journal.recover(EpidemicNode, 0, 3, ITEMS)
    peer = EpidemicNode(1, 3, ITEMS)

    node.update("a", Put(b"hello"))
    journal.record_update("a", Put(b"hello"))
    journal.commit(node)

    peer.update("b", Put(b"peer-data"))
    pull = PullSession(node)
    answer = respond(peer, pull.request())
    pull.conclude(answer)
    assert isinstance(answer, PropagationReply)
    journal.record_accept(journal.codec.encode_payload(answer))
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
        body = encode_record(CODEC, 42, WalUpdate("a", Put(b"v")))
        lsn, record = decode_record(CODEC, body)
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
        body = encode_record(CODEC, 1, WalUpdate("a", Put(b"v"))) + b"\x00"
        with pytest.raises(WALError, match="trailing"):
            decode_record(CODEC, body)

    def test_accept_record_is_the_reply_payload_as_received(self):
        """LSN · kind 2 · the payload of the reply frame a link codec —
        delta caches on — put on the wire (type id 10 and the v3 body),
        byte for byte: a reply reads no cache, so the frame a node
        decoded is the record it journals, and the record shrank with
        the format."""
        node, peer = EpidemicNode(0, 2, ITEMS), EpidemicNode(1, 2, ITEMS)
        for name, value in (("a", b"xy"), ("b", b"z"), ("a", b"xyz")):
            peer.update(name, Put(value))
        reply = respond(peer, PullSession(node).request())
        frame = WireCodec(ITEMS).encode(1, 0, reply)
        body = encode_accept(2, CODEC.encode_payload(reply))
        assert body == bytes([2, 2]) + frame[1:]
        assert body[2] == 10
        assert len(body) < len(V2_ACCEPT_RECORD) < len(PARENT_ACCEPT_RECORD)
        assert decode_record(CODEC, body) == (2, WalAccept(reply))


#: LSN 2's body as the parent commit journaled it: the adoption, by
#: replica 0 of a two-node {a, b} database, of replica 1's answer after
#: ``a := xy; b := z; a := xyz`` — kind 2, then a type-id-4 (v1) reply.
PARENT_ACCEPT_RECORD = bytes.fromhex(
    "0202040102000201620201610302010162017a000200010101610378797a00020002"
)
#: The same record as the v2 journal wrote it (type id 9: items by
#: name), and that journal's ``record_update("b", Put(b"before"))`` at
#: LSN 1 (kind 1: the item by name).
V2_ACCEPT_RECORD = bytes.fromhex(
    "0202090102010162017a000200010101610378797a0002000202000200040102"
)
V2_UPDATE_RECORD = bytes.fromhex("0101016200066265666f7265")


class TestParentWrittenJournal:
    """A v1 journal is refused loudly, never half-read.  (Upgrading is a
    clean shutdown — it folds the WAL into a checkpoint — then a start.)"""

    def test_parent_accept_record_is_an_unknown_type_id(self):
        with pytest.raises(WALError, match="unknown wire message type id 4"):
            decode_record(CODEC, PARENT_ACCEPT_RECORD)

    def test_recovery_stops_at_it_and_replays_nothing_after(
        self, tmp_path, monkeypatch
    ):
        journal = NodeJournal(tmp_path, checkpoint_every=0)
        journal.bind(0, ITEMS)
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


class TestV2Journal:
    """A journal written before items were schema positions is refused
    at its first record, naming the retired type id or record kind."""

    def test_its_records_name_the_retired_id_and_kind(self):
        with pytest.raises(WALError, match="unknown wire message type id 9"):
            decode_record(CODEC, V2_ACCEPT_RECORD)
        with pytest.raises(WALError, match="retired WAL record kind 1"):
            decode_record(CODEC, V2_UPDATE_RECORD)

    @pytest.mark.parametrize("first", [V2_UPDATE_RECORD, V2_ACCEPT_RECORD])
    def test_recovery_refuses_it_before_any_record_applies(self, tmp_path, first):
        records = [first, V2_ACCEPT_RECORD if first is V2_UPDATE_RECORD else V2_UPDATE_RECORD]
        (tmp_path / "wal.log").write_bytes(b"".join(map(bytes, map(frame_record, records))))
        journal = NodeJournal(tmp_path, fsync=False)
        with pytest.raises(WALError, match="type id 9|record kind 1"):
            journal.recover(EpidemicNode, 0, 2, ITEMS)
        assert journal.records_replayed == 0


class TestIdentity:
    """A data directory belongs to one replica: node id and the ordered
    item names.  Recovering it as another is refused before any record
    applies."""

    def folded_node_zero(self, tmp_path) -> NodeJournal:
        journal = NodeJournal(tmp_path, fsync=False)
        node = journal.recover(EpidemicNode, 0, 2, ["a", "b"])
        node.update("a", Put(b"v"))
        journal.record_update("a", Put(b"v"))
        journal.checkpoint(node)
        journal.close()
        return journal

    def test_a_checkpoint_is_not_recovered_as_another_replica(self, tmp_path):
        """The parent returned node 0, n = 2, items a, b here, silently:
        a data directory reused under another ``--node-id`` ran as a
        second node 0 and reused its seqnos."""
        self.folded_node_zero(tmp_path)
        with pytest.raises(SnapshotError, match="node 0 of 2 over 2 items"):
            NodeJournal(tmp_path).recover(EpidemicNode, 1, 3, ["c", "d", "e"])

    @pytest.mark.parametrize(
        "node_id, n_nodes, items",
        [(1, 2, ["a", "b"]), (0, 2, ["b", "a"]), (0, 2, ["a", "c"]), (0, 3, ["a", "b"])],
        ids=["node-id", "order", "names", "fewer-replicas"],
    )
    def test_each_part_of_the_identity_is_checked(self, tmp_path, node_id, n_nodes, items):
        self.folded_node_zero(tmp_path)
        journal = NodeJournal(tmp_path)
        with pytest.raises(SnapshotError, match="belongs to one replica"):
            journal.recover(EpidemicNode, node_id, n_nodes, items)
        assert journal.records_replayed == 0

    def test_more_replicas_than_configured_is_an_expansion(self, tmp_path):
        journal = NodeJournal(tmp_path, fsync=False)
        node = journal.recover(EpidemicNode, 0, 2, ITEMS)
        node.expand_replica_set(3)
        journal.record_expand(3)
        journal.checkpoint(node)
        journal.close()
        recovered = NodeJournal(tmp_path).recover(EpidemicNode, 0, 2, ITEMS)
        assert node_state(recovered) == node_state(node)

    @pytest.mark.parametrize(
        "node_id, items", [(1, ITEMS), (0, ["b", "a"])], ids=["node-id", "order"]
    )
    def test_a_wal_is_not_recovered_as_another_replica(self, tmp_path, node_id, items):
        journal = NodeJournal(tmp_path, fsync=False, checkpoint_every=0)
        node = journal.recover(EpidemicNode, 0, 2, ITEMS)
        node.update("a", Put(b"v"))
        journal.record_update("a", Put(b"v"))
        journal.close()
        fresh = NodeJournal(tmp_path)
        with pytest.raises(WALError, match="belongs to node 0"):
            fresh.recover(EpidemicNode, node_id, 2, items)
        assert fresh.records_replayed == 0

    def test_a_wal_without_its_identity_record_is_refused(self, tmp_path):
        body = encode_record(CODEC, 1, WalUpdate("a", Put(b"v")))
        (tmp_path / "wal.log").write_bytes(bytes(frame_record(body)))
        with pytest.raises(WALError, match="does not open with an identity record"):
            NodeJournal(tmp_path).recover(EpidemicNode, 0, 2, ITEMS)

    def test_every_wal_file_opens_with_it(self, tmp_path):
        journal = NodeJournal(tmp_path, fsync=False, checkpoint_every=2)
        node = journal.recover(EpidemicNode, 0, 2, ITEMS)
        for k in range(3):
            node.update("a", Put(bytes([k])))
            journal.record_update("a", Put(bytes([k])))
            journal.commit(node)
        journal.close()
        bodies, _ = journal.wal.scan(journal.wal_path.read_bytes())
        # The first WAL held identity (LSN 1) and two updates and was
        # folded; the fresh one opens with identity again (LSN 4).
        assert [decode_record(CODEC, body) for body in bodies] == [
            (4, WalIdentity(0, CODEC.schema.digest)),
            (5, WalUpdate("a", Put(b"\x02"))),
        ]

    def test_an_unbound_journal_refuses_to_record(self, tmp_path):
        with pytest.raises(DurabilityError, match="not bound"):
            NodeJournal(tmp_path).record_update("a", Put(b"v"))


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
        journal.bind(0, ITEMS)
        journal.record_update("b", Put(b"before"))
        journal.record_accept(journal.codec.encode_payload(forged))
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
        assert node_state(recovered) == node_state(node)
        recovered.check_invariants()
        assert fresh.records_replayed == 5  # the identity record, then four
        assert fresh.records_skipped == 0

    def test_empty_directory_recovers_a_fresh_node(self, tmp_path):
        journal = NodeJournal(tmp_path)
        assert not journal.has_state
        recovered = journal.recover(EpidemicNode, 2, 5, ITEMS)
        assert node_state(recovered) == node_state(EpidemicNode(2, 5, ITEMS))

    def test_has_state_after_first_commit(self, tmp_path):
        journal = NodeJournal(tmp_path)
        journal.bind(0, ITEMS)
        assert not journal.has_state
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
        assert node_state(final) == node_state(node)


class TestCheckpointing:
    def test_checkpoint_folds_the_wal(self, tmp_path):
        journal = NodeJournal(tmp_path, checkpoint_every=0)
        node = journaled_workload(journal)
        journal.checkpoint(node)
        assert journal.wal_path.read_bytes() == b""
        journal.close()
        fresh = NodeJournal(tmp_path)
        recovered = fresh.recover(EpidemicNode, 0, 3, ITEMS)
        assert node_state(recovered) == node_state(node)
        assert fresh.records_replayed == 0

    def test_auto_checkpoint_cadence(self, tmp_path):
        journal = NodeJournal(tmp_path, checkpoint_every=2)
        node = journal.recover(EpidemicNode, 0, 2, ITEMS)
        for k in range(5):
            node.update("a", Put(f"v{k}".encode()))
            journal.record_update("a", Put(f"v{k}".encode()))
            journal.commit(node)
        assert journal.checkpoints == 2
        journal.close()
        fresh = NodeJournal(tmp_path)
        recovered = fresh.recover(EpidemicNode, 0, 2, ITEMS)
        assert node_state(recovered) == node_state(node)

    def test_commit_without_node_never_checkpoints(self, tmp_path):
        journal = NodeJournal(tmp_path, checkpoint_every=1)
        journal.bind(0, ITEMS)
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
        assert fresh.records_skipped == 5  # the identity record, then four
        assert fresh.records_replayed == 0
        assert node_state(recovered) == node_state(node)

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


class TestAtomicCheckpointWrite:
    """A fold that dies before its rename leaves the prior checkpoint
    byte for byte, no temp file, and a WAL still holding every record
    the prior checkpoint does not cover."""

    def test_failed_replace_keeps_prior_checkpoint(
        self, tmp_path, monkeypatch
    ):
        journal = NodeJournal(tmp_path, checkpoint_every=0)
        node = journaled_workload(journal)
        journal.checkpoint(node)
        prior = journal.checkpoint_path.read_bytes()
        node.update("b", Append(b"!"))
        journal.record_update("b", Append(b"!"))
        journal.commit()

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(journal_module.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="rename"):
            journal.checkpoint(node)
        monkeypatch.undo()
        journal.close()
        assert journal.checkpoint_path.read_bytes() == prior
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint.snap",
            "wal.log",
        ]
        fresh = NodeJournal(tmp_path)
        recovered = fresh.recover(EpidemicNode, 0, 3, ITEMS)
        assert fresh.records_replayed == 2  # the identity record, the update
        assert node_state(recovered) == node_state(node)

    def test_failed_write_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "checkpoint.snap"
        journal_module.atomic_write_bytes(path, b"prior")

        def failing_fsync(fd):
            raise OSError("simulated EIO")

        monkeypatch.setattr(journal_module.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="EIO"):
            journal_module.atomic_write_bytes(path, b"newer")
        assert path.read_bytes() == b"prior"
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.snap"]


def conflicted_pair(journal: NodeJournal) -> EpidemicNode:
    """Replica 0 of a two-node {a, b} database, holding ``a`` in
    conflict after pulling replica 1's concurrent write; every input of
    replica 0 journaled."""
    node, peer = journal.recover(EpidemicNode, 0, 2, ITEMS), EpidemicNode(1, 2, ITEMS)
    node.update("a", Put(b"mine"))
    journal.record_update("a", Put(b"mine"))
    peer.update("a", Put(b"theirs"))
    answer = respond(peer, PullSession(node).request())
    node.accept_propagation(answer)
    journal.record_accept(journal.codec.encode_payload(answer))
    journal.commit()
    assert node.store["a"].in_conflict
    return node


def resolve(journal: NodeJournal, node: EpidemicNode) -> None:
    lineage = node.resolve_conflict("a", b"r")
    journal.record_resolve("a", b"r", lineage)
    journal.commit()


def assert_recovers_as(tmp_path, node: EpidemicNode) -> None:
    fresh = NodeJournal(tmp_path, fsync=False)
    recovered = fresh.recover(EpidemicNode, 0, 2, ITEMS)
    fresh.close()
    assert recovered.dbvv.as_tuple() == node.dbvv.as_tuple()
    assert recovered.store["a"].ivv.as_tuple() == node.store["a"].ivv.as_tuple()
    assert node_state(recovered) == node_state(node)
    recovered.check_invariants()


def resolve_record(lineage_bytes: bytes) -> bytes:
    """A kind-9 body at LSN 2 resolving ``a`` (position 0) to ``r``, its
    lineage laid out by hand (full-form tag, count, components)."""
    return bytes([2, 9, 0]) + b"\x01r" + lineage_bytes


#: What opens the WAL of replica 0 over ``ITEMS``: its identity record.
IDENTITY_RECORD = encode_record(CODEC, 1, WalIdentity(0, CODEC.schema.digest))


class TestResolveRecord:
    """A resolution merges lineage held only in conflict reports, which
    no checkpoint keeps: the record carries that lineage itself."""

    def test_resolution_after_a_fold_recovers_as_the_same_node(self, tmp_path):
        journal = NodeJournal(tmp_path, fsync=False, checkpoint_every=0)
        node = conflicted_pair(journal)
        journal.checkpoint(node)
        resolve(journal, node)
        journal.close()
        assert node.dbvv.as_tuple() == (2, 1)
        assert_recovers_as(tmp_path, node)

    def test_resolution_after_an_expansion_merges_the_narrow_reports(self, tmp_path):
        journal = NodeJournal(tmp_path, fsync=False, checkpoint_every=0)
        node = conflicted_pair(journal)
        node.expand_replica_set(3)
        journal.record_expand(3)
        resolve(journal, node)
        journal.close()
        assert node.store["a"].ivv.as_tuple() == (2, 1, 0)
        assert_recovers_as(tmp_path, node)

    def test_record_round_trips_with_its_lineage(self):
        record = WalResolve("a", b"r", VersionVector.from_counts((3, 1)))
        assert decode_record(CODEC, encode_record(CODEC, 2, record)) == (2, record)
        assert encode_record(CODEC, 2, record) == resolve_record(b"\x00\x02\x03\x01")

    @pytest.mark.parametrize(
        "lineage, error, match",
        [
            (b"\x00\x03\x00\x00\x00", ValidationError, "covers 3 nodes"),
            (b"\x00\x02" + b"\x80" * 9 + b"\x02\x00", WALError, "64-bit"),
            (b"\x00\x02\x01", WALError, "failed to decode"),
        ],
        ids=["wide", "past-2^64", "short"],
    )
    def test_forged_lineage_is_refused_at_recovery(self, tmp_path, lineage, error, match):
        (tmp_path / "wal.log").write_bytes(
            bytes(frame_record(IDENTITY_RECORD) + frame_record(resolve_record(lineage)))
        )
        journal = NodeJournal(tmp_path, fsync=False)
        with pytest.raises(error, match=match):
            journal.recover(EpidemicNode, 0, 2, ITEMS)
        assert journal.records_replayed == 0

    def test_retired_kind_4_is_refused_loudly(self, tmp_path):
        """What ``record_resolve`` wrote before the lineage: lsn 1,
        kind 4, item ``a``, value ``r``."""
        (tmp_path / "wal.log").write_bytes(bytes(frame_record(b"\x01\x04\x01a\x01r")))
        journal = NodeJournal(tmp_path, fsync=False)
        with pytest.raises(WALError, match="retired WAL record kind 4"):
            journal.recover(EpidemicNode, 0, 2, ITEMS)
        assert journal.records_replayed == 0


def adopted_store(items: int) -> tuple[EpidemicNode, EpidemicNode, PropagationReply]:
    """A fresh replica, its peer, and the reply that hands the replica
    the peer's whole store (``items`` × 64 B)."""
    names = [f"k{index:05d}" for index in range(items)]
    node, peer = EpidemicNode(0, 2, names), EpidemicNode(1, 2, names)
    for name in names:
        peer.update(name, Put(bytes(64)))
    answer = respond(peer, PullSession(node).request())
    assert isinstance(answer, PropagationReply)
    return node, peer, answer


class TestBytesTrigger:
    """The WAL folds once it outweighs the last checkpoint (floored at
    64 KiB), beside the ``checkpoint_every`` record count."""

    def test_one_whole_store_adoption_folds_and_restarts_from_the_checkpoint(
        self, tmp_path, monkeypatch
    ):
        node, _peer, answer = adopted_store(1200)
        journal = NodeJournal(tmp_path, fsync=False)
        journal.bind(0, list(node.store.names()))
        node.accept_propagation(answer)
        journal.record_accept(journal.codec.encode_payload(answer))
        assert journal.wal_bytes_since_checkpoint > FLOOR
        journal.commit(node)
        assert journal.checkpoints == 1
        assert journal.wal_bytes_since_checkpoint == 0
        assert journal.checkpoint_bytes == journal.checkpoint_path.stat().st_size
        journal.close()

        loads = []
        load_node = journal_module.load_node
        monkeypatch.setattr(
            journal_module,
            "load_node",
            lambda *args, **kwargs: loads.append(1) or load_node(*args, **kwargs),
        )
        fresh = NodeJournal(tmp_path, fsync=False)
        recovered = fresh.recover(EpidemicNode, 0, 2, list(node.store.names()))
        assert loads == [1] and fresh.records_replayed == 0
        assert fresh.checkpoint_bytes == journal.checkpoint_bytes
        assert node_state(recovered) == node_state(node)

    def test_the_wal_never_outweighs_the_bound_by_more_than_one_batch(self, tmp_path):
        node, peer, answer = adopted_store(1200)
        journal = NodeJournal(tmp_path, fsync=False)
        journal.bind(0, list(node.store.names()))
        batches = [("accept", answer)] + [("update", k) for k in range(900)]
        for round_no in range(3):
            batches.append(("pull", round_no))
            batches += [("update", k) for k in range(300)]
        for kind, what in batches:
            bound = max(journal.checkpoint_bytes, FLOOR)
            before = journal.wal_bytes_since_checkpoint
            if kind == "update":
                value = f"v{what}".encode()
                node.update("k00000", Put(value))
                journal.record_update("k00000", Put(value))
            else:
                if kind == "pull":
                    for name in list(peer.store.names())[1:301]:
                        peer.update(name, Put(bytes([what]) * 64))
                    what = respond(peer, PullSession(node).request())
                node.accept_propagation(what)
                journal.record_accept(journal.codec.encode_payload(what))
            batch = journal.wal_bytes_since_checkpoint - before
            assert journal.wal_bytes_since_checkpoint <= bound + batch
            journal.commit(node)
            assert journal.wal_bytes_since_checkpoint <= max(journal.checkpoint_bytes, FLOOR)
        assert journal.checkpoints >= 3
        journal.close()
        fresh = NodeJournal(tmp_path, fsync=False)
        recovered = fresh.recover(EpidemicNode, 0, 2, list(node.store.names()))
        assert node_state(recovered) == node_state(node)
        assert fresh.wal_bytes_since_checkpoint == journal.wal_path.stat().st_size

    def test_checkpoint_every_zero_disables_both_triggers(self, tmp_path):
        node, _peer, answer = adopted_store(1200)
        journal = NodeJournal(tmp_path, fsync=False, checkpoint_every=0)
        journal.bind(0, list(node.store.names()))
        node.accept_propagation(answer)
        journal.record_accept(journal.codec.encode_payload(answer))
        journal.commit(node)
        assert journal.checkpoints == 0
        assert journal.wal_bytes_since_checkpoint > FLOOR

    def test_a_small_store_keeps_the_record_count_cadence(self, tmp_path):
        """Below the floor only the count folds: 256 updates of a
        two-item store weigh a few KiB, well under 64 KiB."""
        journal = NodeJournal(tmp_path, fsync=False)
        node = journal.recover(EpidemicNode, 0, 2, ITEMS)
        for k in range(600):
            node.update("a", Put(b"x" * 8))
            journal.record_update("a", Put(b"x" * 8))
            journal.commit(node)
        assert journal.checkpoints == 2
