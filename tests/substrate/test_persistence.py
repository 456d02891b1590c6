"""Tests for protocol-state snapshots (crash/repair durability)."""

import pytest

from repro.core.delta import DeltaEpidemicNode
from repro.core.node import EpidemicNode
from repro.substrate.operations import (
    Append,
    BytePatch,
    CounterAdd,
    Put,
    Truncate,
)
from repro.substrate.persistence import (
    SnapshotError,
    decode_op,
    dump_node,
    encode_op,
    load_node,
    restore_node,
    save_node,
)

ITEMS = [f"item-{k}" for k in range(8)]


def equivalent(a: EpidemicNode, b: EpidemicNode) -> bool:
    """Full protocol-state equality between two nodes."""
    if (a.node_id, a.n_nodes) != (b.node_id, b.n_nodes):
        return False
    if a.dbvv != b.dbvv:
        return False
    for name in a.store.names():
        ea, eb = a.store[name], b.store[name]
        if (ea.value, ea.ivv, ea.in_conflict) != (eb.value, eb.ivv, eb.in_conflict):
            return False
        if (ea.aux_value, ea.aux_ivv) != (eb.aux_value, eb.aux_ivv):
            return False
    for origin in range(a.n_nodes):
        if a.log[origin].pairs() != b.log[origin].pairs():
            return False
    aux_a = [(r.item, r.pre_ivv.as_tuple(), r.op) for r in a.aux_log]
    aux_b = [(r.item, r.pre_ivv.as_tuple(), r.op) for r in b.aux_log]
    return aux_a == aux_b


def busy_node() -> EpidemicNode:
    """A node with every kind of state populated."""
    node = EpidemicNode(0, 3, ITEMS)
    peer = EpidemicNode(1, 3, ITEMS)
    node.update(ITEMS[0], Put(b"hello"))
    node.update(ITEMS[0], Append(b" world"))
    node.update(ITEMS[1], CounterAdd(5))
    peer.update(ITEMS[2], Put(b"peer-data"))
    node.pull_from(peer)
    # Out-of-bound state with a deferred update.
    peer.update(ITEMS[3], Put(b"hot"))
    node.copy_out_of_bound(ITEMS[3], peer)
    node.update(ITEMS[3], Append(b"+local"))
    return node


class TestOpCodec:
    @pytest.mark.parametrize(
        "op",
        [
            Put(b"value with \x00 bytes"),
            Put(b""),
            Append(b"tail"),
            BytePatch(17, b"patch"),
            Truncate(4),
            CounterAdd(-12),
        ],
    )
    def test_roundtrip(self, op):
        assert decode_op(encode_op(op)) == op

    def test_unknown_kind_rejected(self):
        with pytest.raises(SnapshotError):
            decode_op("teleport 123")

    def test_malformed_payload_rejected(self):
        with pytest.raises(SnapshotError):
            decode_op("put not-hex")

    def test_negative_patch_offset_rejected(self):
        # int() parses "-3" happily; replaying it would corrupt the
        # value instead of failing the load.
        with pytest.raises(SnapshotError, match="negative patch offset"):
            decode_op("patch -3 61616161")

    def test_negative_truncate_length_rejected(self):
        with pytest.raises(SnapshotError, match="negative truncate length"):
            decode_op("truncate -4")

    def test_zero_offset_and_length_still_accepted(self):
        assert decode_op("patch 0 61") == BytePatch(0, b"a")
        assert decode_op("truncate 0") == Truncate(0)


class TestSnapshotRoundtrip:
    def test_fresh_node(self):
        node = EpidemicNode(1, 2, ITEMS)
        assert equivalent(node, load_node(dump_node(node)))

    def test_busy_node(self):
        node = busy_node()
        restored = load_node(dump_node(node))
        assert equivalent(node, restored)
        restored.check_invariants()

    def test_restored_node_continues_the_protocol(self):
        """The acid test: a repaired node keeps replicating correctly —
        deferred out-of-bound updates still replay, logs still serve."""
        node = busy_node()
        peer = EpidemicNode(1, 3, ITEMS)
        restored = load_node(dump_node(node))
        peer.pull_from(restored)
        assert peer.read(ITEMS[0]) == b"hello world"
        # The deferred aux update survives the restart and replays.
        donor = EpidemicNode(2, 3, ITEMS)
        donor.pull_from(peer)
        _, intra = restored.pull_from(peer)
        assert restored.read(ITEMS[3]) == b"hot+local"
        restored.check_invariants()

    def test_conflict_flag_survives(self):
        a = EpidemicNode(0, 2, ITEMS)
        b = EpidemicNode(1, 2, ITEMS)
        a.update(ITEMS[0], Put(b"x"))
        b.update(ITEMS[0], Put(b"y"))
        a.pull_from(b)
        restored = load_node(dump_node(a))
        assert restored.store[ITEMS[0]].in_conflict

    def test_file_roundtrip(self, tmp_path):
        node = busy_node()
        path = tmp_path / "node.snapshot"
        save_node(node, path)
        assert equivalent(node, restore_node(path))

    def test_delta_node_restores_and_serves_full_copies(self):
        source = DeltaEpidemicNode(0, 2, ITEMS)
        source.update(ITEMS[0], Put(b"v"))
        restored = load_node(dump_node(source), node_class=DeltaEpidemicNode)
        # Histories are not persisted; the restored node must fall back
        # to whole-value payloads but still replicate correctly.
        recipient = DeltaEpidemicNode(1, 2, ITEMS)
        recipient.pull_from(restored)
        assert recipient.read(ITEMS[0]) == b"v"
        assert restored.full_copies_shipped == 1


class TestAtomicSave:
    def test_failed_replace_preserves_prior_snapshot(self, tmp_path, monkeypatch):
        """A write that dies before the atomic rename leaves the prior
        snapshot byte-for-byte intact (no torn half-written file)."""
        import repro.substrate.persistence as persistence

        path = tmp_path / "node.snapshot"
        old = EpidemicNode(0, 2, ITEMS)
        old.update(ITEMS[0], Put(b"committed"))
        save_node(old, path)
        newer = busy_node()

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(persistence.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            save_node(newer, path)
        monkeypatch.undo()
        restored = restore_node(path)
        assert equivalent(old, restored)
        assert restored.read(ITEMS[0]) == b"committed"

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import repro.substrate.persistence as persistence

        path = tmp_path / "node.snapshot"
        save_node(EpidemicNode(0, 2, ITEMS), path)
        monkeypatch.setattr(
            persistence.os,
            "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            save_node(busy_node(), path)
        monkeypatch.undo()
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["node.snapshot"]

    def test_save_replaces_existing_snapshot(self, tmp_path):
        path = tmp_path / "node.snapshot"
        save_node(EpidemicNode(0, 2, ITEMS), path)
        newer = busy_node()
        save_node(newer, path)
        assert equivalent(newer, restore_node(path))


class TestAuxiliaryDumpValidation:
    def test_half_present_auxiliary_copy_rejected(self):
        """An aux IVV without an aux value is internal corruption; the
        dump must refuse (raising, not asserting — the check has to
        survive ``python -O``) instead of writing a torn snapshot."""
        node = busy_node()
        entry = node.store[ITEMS[3]]
        assert entry.has_auxiliary
        entry.aux_value = None
        with pytest.raises(SnapshotError, match="auxiliary"):
            dump_node(node)


class TestValidation:
    def test_not_a_snapshot(self):
        with pytest.raises(SnapshotError):
            load_node("hello world")

    def test_wrong_version(self):
        with pytest.raises(SnapshotError):
            load_node("epidemic-node-snapshot v99\nnode 0 1\ndbvv 0\n[end]\n")

    def test_garbage_line_rejected(self):
        node = EpidemicNode(0, 2, ITEMS)
        text = dump_node(node).replace("[log]", "[log]\nbogus line here")
        with pytest.raises(SnapshotError):
            load_node(text)

    def test_spacey_item_names_rejected(self):
        node = EpidemicNode(0, 1, ["bad name"])
        with pytest.raises(SnapshotError):
            dump_node(node)


class TestTruncatedDump:
    """A dump cut anywhere never loads as a smaller node: before its
    ``[end]`` line every cut is a :class:`SnapshotError`; only dropping
    the final newline (the line itself survives) loads, identically."""

    def test_every_truncation_is_refused_or_identical(self):
        node = busy_node()
        text = dump_node(node)
        loaded = 0
        for cut in range(len(text) + 1):
            try:
                restored = load_node(text[:cut])
            except SnapshotError:
                continue
            assert equivalent(node, restored), f"cut at {cut}"
            loaded += 1
        assert loaded == 2  # the whole dump, and the dump minus its newline

    @pytest.mark.parametrize(
        "old, new",
        [
            ("rec 0 2 item-0", "rec 0 2 item-99"),  # log names an unknown item
            ("aux item-3", "aux item-99"),  # aux copy of an unknown item
            ("rec 0 2 item-0", "rec 0 x item-0"),  # ValueError inside
            ("node 0 3", "node 0"),  # too few fields
            ("[log]", "[auxlog]"),  # sections out of order
        ],
    )
    def test_parse_failures_are_snapshot_errors(self, old, new):
        text = dump_node(busy_node())
        assert old in text
        with pytest.raises(SnapshotError):
            load_node(text.replace(old, new, 1))

    def test_non_utf8_file_is_a_snapshot_error(self, tmp_path):
        path = tmp_path / "node.snapshot"
        path.write_bytes(b"epidemic-node-snapshot v1\n\xff\n")
        with pytest.raises(SnapshotError, match="UTF-8"):
            restore_node(path)
