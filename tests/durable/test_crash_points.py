"""The crash-point property: kill the WAL at *every* byte offset.

A crash can cut the log anywhere — mid-length-prefix, mid-CRC,
mid-body — and recovery must always come back to the exact state the
node had after the last record that survived intact, never a torn
half-state.  The hypothesis strategy generates a random workload (user
updates, anti-entropy adoptions, out-of-bound fetches — everything the
drivers journal); the test then truncates the resulting WAL at every
single byte offset and checks, for each truncation point, that the
recovered replica

* equals (``node_state``-exactly) an *independent* replay of the record
  prefix whose frames fit below the cut,
* passes ``check_invariants``, and
* left the log file appendable (truncated to the last intact record).

Group-commit (fsync) boundaries are a subset of byte offsets, so the
crashes a real power cut produces under fsync discipline are covered by
the same sweep; a dedicated assertion checks the acknowledged-record
guarantee at exactly those boundaries anyway.
"""

import copy
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.messages import PropagationReply
from repro.core.node import EpidemicNode
from repro.core.session import PullSession, respond
from repro.durable import NodeJournal, apply_record, decode_record
from repro.durable.wal import WriteAheadLog
from repro.substrate.operations import Append, Put
from repro.wire.varint import write_uvarint
from tests.node_state import node_state

ITEMS = ["a", "b"]

ACTIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"), st.sampled_from(ITEMS), st.binary(max_size=6)
        ),
        st.tuples(
            st.just("append"),
            st.sampled_from(ITEMS),
            st.binary(min_size=1, max_size=4),
        ),
        st.tuples(st.just("peer_put"), st.sampled_from(ITEMS)),
        st.just(("pull",)),
        st.just(("oob",)),
    ),
    min_size=1,
    max_size=7,
)


def run_workload(journal, actions) -> tuple[EpidemicNode, list[int]]:
    """Drive (node, peer) through ``actions``, journaling the node's
    inputs; returns the node and the record count at each group-commit
    boundary (every acknowledged batch)."""
    node = journal.recover(EpidemicNode, 0, 3, ITEMS)
    peer = EpidemicNode(1, 3, ITEMS)
    committed_counts = []
    recorded = 0
    for index, action in enumerate(actions):
        kind = action[0]
        if kind == "put":
            node.update(action[1], Put(action[2]))
            journal.record_update(action[1], Put(action[2]))
        elif kind == "append":
            node.update(action[1], Append(action[2]))
            journal.record_update(action[1], Append(action[2]))
        elif kind == "peer_put":
            peer.update(action[1], Put(f"peer{index}".encode()))
            continue  # peer-local, nothing journaled at the node
        elif kind == "pull":
            pull = PullSession(node)
            answer = respond(peer, pull.request())
            pull.conclude(answer)
            if not isinstance(answer, PropagationReply):
                continue  # YouAreCurrent: nothing adopted, nothing logged
            journal.record_accept(journal.codec.encode_payload(answer))
        else:  # oob
            reply = peer.handle_oob_request(node.make_oob_request(action[1] if len(action) > 1 else "a"))
            node.accept_oob(reply)
            journal.record_oob(reply)
        recorded += 1
        journal.commit(node)
        committed_counts.append(recorded)
    return node, committed_counts


def frame_ends(bodies) -> list[int]:
    """Cumulative end offset of each record's on-disk frame."""
    ends = []
    cursor = 0
    for body in bodies:
        prefix = bytearray()
        write_uvarint(prefix, len(body))
        cursor += len(prefix) + 4 + len(body)
        ends.append(cursor)
    return ends


def recover_from(directory: Path) -> tuple[EpidemicNode, NodeJournal]:
    journal = NodeJournal(directory, fsync=False)
    node = journal.recover(EpidemicNode, 0, 3, ITEMS)
    journal.close()
    return node, journal


@settings(max_examples=12, deadline=None)
@given(actions=ACTIONS)
def test_recovery_is_prefix_consistent_at_every_truncation_point(actions):
    with tempfile.TemporaryDirectory(prefix="crashpoints-") as tmp:
        base = Path(tmp)
        journal = NodeJournal(base / "full", fsync=False, checkpoint_every=0)
        _, committed_counts = run_workload(journal, actions)
        journal.close()
        # A workload that journaled nothing never created the file.
        data = (
            journal.wal_path.read_bytes() if journal.wal_path.exists() else b""
        )

        bodies, valid = WriteAheadLog.scan(data)
        assert valid == len(data)  # a clean shutdown leaves no torn tail
        ends = frame_ends(bodies)
        assert (ends[-1] if ends else 0) == len(data)

        # Independent prefix states: dumps[k] = fresh node + replay of
        # the first k records (not through NodeJournal.recover).
        reference = EpidemicNode(0, 3, ITEMS)
        dumps = [node_state(reference)]
        for body in bodies:
            _, record = decode_record(journal.codec, body)
            apply_record(reference, record)
            dumps.append(node_state(reference))

        crash_dir = base / "crash"
        for cut in range(len(data) + 1):
            survived = sum(1 for end in ends if end <= cut)
            shutil.rmtree(crash_dir, ignore_errors=True)
            crash_dir.mkdir()
            (crash_dir / "wal.log").write_bytes(data[:cut])
            recovered, recovering = recover_from(crash_dir)
            assert node_state(recovered) == dumps[survived], f"cut at byte {cut}"
            recovered.check_invariants()
            assert recovering.records_replayed == survived
            # The repaired log ends exactly at the last intact record,
            # ready for further appends.
            expected_size = ends[survived - 1] if survived else 0
            assert (crash_dir / "wal.log").stat().st_size == expected_size

        # Fsync-boundary crashes: every group commit acknowledged a
        # record batch; a cut exactly at a commit boundary must recover
        # every acknowledged record (the durability contract).
        for count in committed_counts:
            cut = ends[count - 1]
            shutil.rmtree(crash_dir, ignore_errors=True)
            crash_dir.mkdir()
            (crash_dir / "wal.log").write_bytes(data[:cut])
            recovered, _ = recover_from(crash_dir)
            assert node_state(recovered) == dumps[count]


@settings(max_examples=8, deadline=None)
@given(actions=ACTIONS, checkpoint_after=st.integers(min_value=0, max_value=7))
def test_recovery_from_checkpoint_plus_suffix_at_every_truncation_point(
    actions, checkpoint_after
):
    """Same sweep with a mid-workload checkpoint: recovery must splice
    checkpoint base + WAL-suffix prefix, gated by LSN."""
    with tempfile.TemporaryDirectory(prefix="crashpoints-ckpt-") as tmp:
        base = Path(tmp)
        journal = NodeJournal(base / "node", fsync=False, checkpoint_every=0)
        node = journal.recover(EpidemicNode, 0, 3, ITEMS)
        peer = EpidemicNode(1, 3, ITEMS)
        base_lsn, base_node = 0, EpidemicNode(0, 3, ITEMS)
        for index, action in enumerate(actions):
            if index == checkpoint_after:
                journal.checkpoint(node)
                # Independent base state: the node as it was checkpointed.
                base_lsn, base_node = journal.wal.records_appended, copy.deepcopy(node)
            kind = action[0]
            if kind == "put":
                node.update(action[1], Put(action[2]))
                journal.record_update(action[1], Put(action[2]))
            elif kind == "append":
                node.update(action[1], Append(action[2]))
                journal.record_update(action[1], Append(action[2]))
            elif kind == "peer_put":
                peer.update(action[1], Put(f"peer{index}".encode()))
                continue
            elif kind == "pull":
                pull = PullSession(node)
                answer = respond(peer, pull.request())
                pull.conclude(answer)
                if not isinstance(answer, PropagationReply):
                    continue
                journal.record_accept(journal.codec.encode_payload(answer))
            else:
                reply = peer.handle_oob_request(node.make_oob_request("a"))
                node.accept_oob(reply)
                journal.record_oob(reply)
            journal.commit(node)
        journal.close()
        data = (
            journal.wal_path.read_bytes() if journal.wal_path.exists() else b""
        )
        has_checkpoint = journal.checkpoint_path.exists()
        checkpoint_bytes = (
            journal.checkpoint_path.read_bytes() if has_checkpoint else b""
        )

        bodies, valid = WriteAheadLog.scan(data)
        assert valid == len(data)
        ends = frame_ends(bodies)

        crash_dir = base / "crash"
        for cut in range(len(data) + 1):
            survived = sum(1 for end in ends if end <= cut)
            shutil.rmtree(crash_dir, ignore_errors=True)
            crash_dir.mkdir()
            if has_checkpoint:
                (crash_dir / "checkpoint.snap").write_bytes(checkpoint_bytes)
            (crash_dir / "wal.log").write_bytes(data[:cut])
            recovered, _ = recover_from(crash_dir)
            recovered.check_invariants()

            expected = copy.deepcopy(base_node)
            for body in bodies[:survived]:
                lsn, record = decode_record(journal.codec, body)
                if lsn > base_lsn:
                    apply_record(expected, record)
            assert node_state(recovered) == node_state(expected), f"cut {cut}"

        # The full log replays back to the exact pre-crash state.
        full, _ = recover_from(base / "node")
        assert node_state(full) == node_state(node)
