"""The binary checkpoint: one CRC-framed column dump per data directory.

* **Every cut, every bit flip.**  A checkpoint file cut at any byte
  offset, or with any single bit flipped, must never load as some other
  node: recovery raises :class:`SnapshotError` and replays nothing from
  the WAL after it.  (The text checkpoint it replaces loaded a dump cut
  at a line boundary as a smaller node.)
* **Round trip.**  Any state a cluster can reach — all five operation
  types, pulls, conflicts and their resolution, out-of-bound copies
  with their auxiliary log, replica-set growth, the delta-shipping
  node — comes back from checkpoint → recover ``node_state``-identical
  and passing ``check_invariants``.
* **Fold anywhere.**  The same runs journaled input by input, with the
  WAL folded after an arbitrary subset of steps, recover to the same
  node: no record depends on state a checkpoint drops (the conflict
  reports a resolution merged are journaled with it).
* **Restored nodes carry on.**  A node rebuilt from its checkpoint
  keeps serving its log, replays its deferred out-of-bound updates, and
  a restored cluster ends where the original does under the same pulls.
* **Forgeries.**  CRC-valid bodies built by hand from the layout in
  ``repro.durable.checkpoint`` — the honest one is pinned byte for byte
  against the encoder — and then bent one field at a time: each is a
  typed :class:`SnapshotError`, raised before any node exists.
* **Upgrade.**  A text checkpoint written by an earlier release is
  refused with the remedy, not half-read.
"""

import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.delta import DeltaEpidemicNode
from repro.core.messages import PropagationReply
from repro.core.node import EpidemicNode
from repro.core.validate import MAX_REPLICA_SET
from repro.durable import (
    NodeJournal,
    WalAccept,
    WalExpand,
    WalOob,
    WalResolve,
    WalUpdate,
)
from repro.durable.checkpoint import SnapshotError, encode_checkpoint, load_node
from repro.errors import OperationError
from repro.substrate.operations import (
    Append,
    BytePatch,
    CounterAdd,
    Put,
    Truncate,
)
from repro.wire.varint import write_uvarint
from tests.node_state import node_state

#: What ``NodeJournal.checkpoint`` wrote before the binary format.
PARENT_TEXT_CHECKPOINT = (
    "checkpoint lsn 1\nepidemic-node-snapshot v1\nnode 0 3\ndbvv 1,0,0\n"
    "[items]\nitem a 1,0,0 68656c6c6f 0\nitem b 0,0,0  0\n[log]\n"
    "rec 0 1 a\n[auxlog]\n[end]\n"
)

SIX = [f"item-{k}" for k in range(6)]


def small_checkpointed_journal(directory: Path) -> EpidemicNode:
    """A 6-item node checkpointed, then two more records in the WAL."""
    journal = NodeJournal(directory, fsync=False, checkpoint_every=0)
    node = journal.recover(EpidemicNode, 0, 2, SIX)
    peer = EpidemicNode(1, 2, SIX)
    for name in SIX:
        node.update(name, Put(name.encode()))
        journal.record_update(name, Put(name.encode()))
    peer.update(SIX[0], Put(b"peer"))
    reply = peer.send_propagation(node.make_propagation_request())
    node.accept_propagation(reply)
    journal.record_accept(journal.codec.encode_payload(reply))
    journal.commit()
    journal.checkpoint(node)
    for name in SIX[:2]:
        node.update(name, Append(b"+"))
        journal.record_update(name, Append(b"+"))
    journal.close()
    return node


class TestEveryCutAndFlip:
    def test_every_truncation_and_bit_flip_is_refused(self, tmp_path):
        node = small_checkpointed_journal(tmp_path / "good")
        good = (tmp_path / "good" / "checkpoint.snap").read_bytes()
        wal = (tmp_path / "good" / "wal.log").read_bytes()
        crash = tmp_path / "crash"
        crash.mkdir()

        def recover(checkpoint: bytes) -> NodeJournal:
            (crash / "checkpoint.snap").write_bytes(checkpoint)
            (crash / "wal.log").write_bytes(wal)
            journal = NodeJournal(crash, fsync=False)
            with pytest.raises(SnapshotError):
                journal.recover(EpidemicNode, 0, 2, SIX)
            # Nothing after the checkpoint was replayed or repaired.
            assert journal.records_replayed == 0
            assert (crash / "wal.log").read_bytes() == wal
            return journal

        for cut in range(len(good)):
            recover(good[:cut])
        for position in range(len(good)):
            for bit in range(8):
                flipped = bytearray(good)
                flipped[position] ^= 1 << bit
                recover(bytes(flipped))

        (crash / "checkpoint.snap").write_bytes(good)
        journal = NodeJournal(crash, fsync=False)
        assert node_state(journal.recover(EpidemicNode, 0, 2, SIX)) == node_state(node)
        assert journal.records_replayed == 3  # the identity record, two updates


N_NODES = 3
ITEMS = ["a", "b", "c"]
node_ids = st.integers(min_value=0, max_value=N_NODES - 1)
item_ids = st.integers(min_value=0, max_value=len(ITEMS) - 1)
ops = st.one_of(
    st.builds(Put, st.binary(max_size=4)),
    st.builds(Append, st.binary(min_size=1, max_size=3)),
    st.builds(BytePatch, st.integers(min_value=0, max_value=3), st.binary(max_size=2)),
    st.builds(Truncate, st.integers(min_value=0, max_value=3)),
    st.builds(CounterAdd, st.integers(min_value=-3, max_value=3)),
)
updates = st.tuples(st.just("update"), node_ids, item_ids, ops)
pulls = st.tuples(st.just("pull"), node_ids, node_ids)
steps = st.lists(
    st.one_of(
        updates,
        updates,
        pulls,
        pulls,
        st.tuples(st.just("oob"), node_ids, node_ids, item_ids),
        st.tuples(st.just("resolve"), node_ids, item_ids),
        st.just(("expand",)),
    ),
    min_size=6,
    max_size=30,
)


def run(node_class, program, journals=None, folds=frozenset()):
    """Drive the cluster through ``program``.  With ``journals`` given,
    each node journals its inputs as the simulator and ``repro.net`` do,
    one commit per input, and every journal folds after each step index
    in ``folds``."""
    nodes = [node_class(k, N_NODES, ITEMS) for k in range(N_NODES)]
    for index, step in enumerate(program):
        kind = step[0]
        records = []  # (node id, record)
        if kind == "update":
            _kind, who, item, op = step
            try:
                nodes[who].update(ITEMS[item], op)
            except OperationError:
                pass  # e.g. a patch past the value's end: nothing applied
            else:
                records.append((who, WalUpdate(ITEMS[item], op)))
        elif kind == "pull" and step[1] != step[2]:
            node = nodes[step[1]]
            answer = nodes[step[2]].send_propagation(node.make_propagation_request())
            if isinstance(answer, PropagationReply):
                node.accept_propagation(answer)
                records.append((node.node_id, WalAccept(answer)))
        elif kind == "oob" and step[1] != step[2]:
            node = nodes[step[1]]
            reply = nodes[step[2]].handle_oob_request(node.make_oob_request(ITEMS[step[3]]))
            node.accept_oob(reply)
            records.append((node.node_id, WalOob(reply)))
        elif kind == "resolve" and nodes[step[1]].store[ITEMS[step[2]]].in_conflict:
            lineage = nodes[step[1]].resolve_conflict(ITEMS[step[2]], b"resolved")
            records.append((step[1], WalResolve(ITEMS[step[2]], b"resolved", lineage)))
        elif kind == "expand" and nodes[0].n_nodes < 5:
            for node in nodes:
                node.expand_replica_set(node.n_nodes + 1)
                records.append((node.node_id, WalExpand(node.n_nodes)))
        if journals is None:
            continue
        for who, record in records:
            if isinstance(record, WalAccept):
                # An adoption is journaled as the reply's payload bytes.
                payload = journals[who].codec.encode_payload(record.reply)
                journals[who].record_accept(payload)
            else:
                journals[who].record(record)
            journals[who].commit()
        if index in folds:
            for journal, node in zip(journals, nodes):
                journal.checkpoint(node)
    return nodes


CONFLICT_THEN_AUX = [
    ("update", 0, 0, Put(b"x")),
    ("update", 1, 0, Put(b"y")),
    ("pull", 0, 1),  # conflict on a at node 0
    ("update", 2, 0, Put(b"z")),
    ("pull", 1, 2),  # and at node 1, left unresolved
    ("resolve", 0, 0),
    ("update", 1, 1, CounterAdd(2)),
    ("oob", 2, 1, 1),  # auxiliary copy of b at node 2...
    ("update", 2, 1, CounterAdd(3)),  # ...and an auxiliary-log record
]
#: A conflict folded into a checkpoint, then resolved: the reports the
#: resolution merges are not in the checkpoint.
RESOLVE_AFTER_FOLD = [
    ("update", 0, 0, Put(b"x")),
    ("update", 1, 0, Put(b"y")),
    ("pull", 0, 1),
    ("resolve", 0, 0),
]
#: A conflict reported at three nodes, resolved at four.
RESOLVE_AFTER_EXPAND = RESOLVE_AFTER_FOLD[:3] + [("expand",), ("resolve", 0, 0)]
GROWN_THEN_AUX = [
    ("update", 0, 2, Append(b"c")),
    ("expand",),
    ("update", 1, 1, Put(b"late")),
    ("oob", 0, 1, 1),
    ("update", 0, 1, BytePatch(0, b"L")),
    ("update", 0, 1, Truncate(2)),
    ("pull", 2, 0),
]


@settings(max_examples=80, deadline=None)
@given(node_class=st.sampled_from([EpidemicNode, DeltaEpidemicNode]), program=steps)
@example(node_class=EpidemicNode, program=CONFLICT_THEN_AUX)
@example(node_class=DeltaEpidemicNode, program=CONFLICT_THEN_AUX)
@example(node_class=EpidemicNode, program=GROWN_THEN_AUX)
def test_checkpoint_then_recover_reproduces_any_reachable_state(node_class, program):
    with tempfile.TemporaryDirectory(prefix="checkpoint-") as tmp:
        for node in run(node_class, program):
            journal = NodeJournal(Path(tmp) / str(node.node_id), fsync=False)
            journal.checkpoint(node)
            recovered = journal.recover(node_class, node.node_id, N_NODES, ITEMS)
            journal.close()
            assert type(recovered) is node_class
            assert node_state(recovered) == node_state(node)
            recovered.check_invariants()


@settings(max_examples=80, deadline=None)
@given(
    node_class=st.sampled_from([EpidemicNode, DeltaEpidemicNode]),
    program=steps,
    folds=st.frozensets(st.integers(min_value=0, max_value=29)),
)
@example(node_class=EpidemicNode, program=RESOLVE_AFTER_FOLD, folds=frozenset({2}))
@example(node_class=EpidemicNode, program=RESOLVE_AFTER_EXPAND, folds=frozenset())
@example(node_class=DeltaEpidemicNode, program=RESOLVE_AFTER_EXPAND, folds=frozenset({3}))
@example(node_class=EpidemicNode, program=CONFLICT_THEN_AUX, folds=frozenset({2, 4, 6}))
@example(node_class=EpidemicNode, program=GROWN_THEN_AUX, folds=frozenset({0, 3}))
def test_fold_anywhere_then_recover_reproduces_the_journaled_node(
    node_class, program, folds
):
    with tempfile.TemporaryDirectory(prefix="fold-") as tmp:
        journals = [
            NodeJournal(Path(tmp) / str(k), fsync=False, checkpoint_every=0)
            for k in range(N_NODES)
        ]
        for k, journal in enumerate(journals):
            journal.bind(k, ITEMS)
        nodes = run(node_class, program, journals, folds)
        for journal, node in zip(journals, nodes):
            journal.close()
            fresh = NodeJournal(journal.data_dir, fsync=False)
            recovered = fresh.recover(node_class, node.node_id, N_NODES, ITEMS)
            fresh.close()
            assert node_state(recovered) == node_state(node)
            recovered.check_invariants()


def restored(node, node_class=EpidemicNode):
    """``node`` through its checkpoint bytes and back."""
    _lsn, copy = load_node(bytes(encode_checkpoint(0, node)), node_class)
    return copy


def busy_pair() -> tuple[EpidemicNode, EpidemicNode]:
    """Replica 0 holding a merged peer write, an out-of-bound copy of
    ``c`` and a deferred local update of it; and the peer it copied
    from, whose regular update of ``c`` replica 0 has not pulled yet."""
    node, peer = EpidemicNode(0, N_NODES, ITEMS), EpidemicNode(1, N_NODES, ITEMS)
    node.update("a", Put(b"hello"))
    node.update("a", Append(b" world"))
    peer.update("b", Put(b"peer-data"))
    node.pull_from(peer)
    peer.update("c", Put(b"hot"))
    node.copy_out_of_bound("c", peer)
    node.update("c", Append(b"+local"))
    return node, peer


class TestRestoredNode:
    def test_restored_node_continues_the_protocol(self):
        """A repaired node keeps replicating: its log still serves, and
        its deferred out-of-bound update replays once the regular copy
        catches up."""
        node, peer = busy_pair()
        copy = restored(node)
        assert node_state(copy) == node_state(node)
        fresh = EpidemicNode(2, N_NODES, ITEMS)
        fresh.pull_from(copy)
        assert fresh.read("a") == b"hello world"
        assert copy.store["c"].has_auxiliary
        copy.pull_from(peer)
        assert copy.read("c") == b"hot+local"
        assert not copy.store["c"].has_auxiliary
        copy.check_invariants()

    def test_delta_node_restores_and_serves_full_copies(self):
        source = DeltaEpidemicNode(0, 2, ITEMS)
        source.update("a", Put(b"v"))
        copy = restored(source, DeltaEpidemicNode)
        # Operation histories are not kept: the restored node ships
        # whole values until new updates rebuild them.
        recipient = DeltaEpidemicNode(1, 2, ITEMS)
        recipient.pull_from(copy)
        assert recipient.read("a") == b"v"
        assert copy.full_copies_shipped == 1

    def test_half_present_auxiliary_copy_rejected(self):
        """An auxiliary IVV without its value is internal corruption: the
        encoder raises (it must survive ``python -O``) rather than write
        a checkpoint that loads as some other node."""
        node, _peer = busy_pair()
        entry = node.store["c"]
        assert entry.has_auxiliary
        entry.aux_value = None
        with pytest.raises(SnapshotError, match="auxiliary"):
            encode_checkpoint(0, node)


@settings(max_examples=30, deadline=None)
@given(program=steps)
def test_restored_cluster_behaves_identically(program):
    """Restore every node from its checkpoint, run one deterministic
    pull schedule on both clusters, and compare the final states."""
    original = run(EpidemicNode, program)
    copies = [restored(node) for node in original]
    for _round in range(N_NODES + 1):
        for dst in range(N_NODES):
            for src in range(N_NODES):
                if dst != src:
                    original[dst].pull_from(original[src])
                    copies[dst].pull_from(copies[src])
    for node, copy in zip(original, copies):
        assert node_state(copy) == node_state(node)


def _uvarint(value: int) -> bytes:
    out = bytearray()
    write_uvarint(out, value)
    return bytes(out)


def _block(*parts: bytes) -> bytes:
    data = b"".join(parts)
    return _uvarint(len(data)) + data


def _le(code: str, values) -> bytes:
    return struct.pack(f"<{len(values)}{code}", *values)


def forge(
    *,
    n_nodes=2,
    dbvv=(1, 0),
    names=("a", "b"),
    items=None,
    ivvs=(1, 0, 0, 0),
    values=(b"x", b""),
    log=((0, 0, 1),),
):
    """A CRC-framed checkpoint laid out by hand; ``log`` holds
    ``(origin, item index, seqno)`` records."""
    per_origin = [sum(1 for origin, _i, _s in log if origin == k) for k in range(n_nodes)]
    body = (
        _uvarint(7)  # lsn
        + _uvarint(0)  # node id
        + _uvarint(n_nodes)
        + b"\x00" + _uvarint(len(dbvv)) + b"".join(map(_uvarint, dbvv))
        + _uvarint(len(names) if items is None else items)
        + _block(_le("I", [len(name) for name in names]), "".join(names).encode())
        + _block(_le("Q", ivvs))
        + _block(_le("I", [len(value) for value in values]), b"".join(values))
        + _block(bytes(len(names)))
        + _block(
            _le("I", per_origin),
            _le("I", [index for _o, index, _s in log]),
            _le("Q", [seqno for _o, _i, seqno in log]),
        )
        + _block(b"\x00")  # no auxiliary copies
        + _block(b"\x00")  # empty auxiliary log
    )
    return _uvarint(len(body)) + zlib.crc32(body).to_bytes(4, "little") + body


class TestForgedBodies:
    def test_the_hand_layout_is_the_encoders(self):
        node = EpidemicNode(0, 2, ["a", "b"])
        node.update("a", Put(b"x"))
        assert bytes(encode_checkpoint(7, node)) == forge()
        lsn, loaded = load_node(forge())
        assert lsn == 7 and node_state(loaded) == node_state(node)

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"items": 1 << 20}, "not 1048576 entries"),
            ({"ivvs": (1, 0, 0)}, "IVV column"),
            ({"log": ((0, 5, 1),)}, "item index past"),
            ({"names": ("a" * 5000, "b")}, "exceeds cap"),
            ({"dbvv": (2, 0)}, "column sums"),
            ({"n_nodes": MAX_REPLICA_SET + 1, "ivvs": (), "names": (), "values": (), "log": ()},
             "replica set"),
        ],
        ids=["count-past-body", "ivv-block", "log-index", "bad-name", "dbvv-sums", "n-nodes-cap"],
    )
    def test_forgery_is_a_snapshot_error(self, fields, error):
        with pytest.raises(SnapshotError, match=error):
            load_node(forge(**fields))


class TestUpgradePath:
    def test_text_checkpoint_is_refused_with_the_remedy(self, tmp_path):
        (tmp_path / "checkpoint.snap").write_text(PARENT_TEXT_CHECKPOINT)
        journal = NodeJournal(tmp_path, fsync=False)
        journal.bind(0, ["a", "b"])
        journal.record_update("a", Put(b"later"))
        journal.close()
        wal = (tmp_path / "wal.log").read_bytes()
        journal = NodeJournal(tmp_path, fsync=False)
        with pytest.raises(SnapshotError, match="text checkpoint") as refused:
            journal.recover(EpidemicNode, 0, 3, ["a", "b"])
        assert "empty the data directory" in str(refused.value)
        assert "anti-entropy" in str(refused.value)
        assert journal.records_replayed == 0
        assert (tmp_path / "wal.log").read_bytes() == wal
