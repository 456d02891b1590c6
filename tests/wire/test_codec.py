"""Unit tests for framing, the request's cached DBVV, self-contained
vectors, and the message classes the registry serves."""

import importlib
import pkgutil

import pytest

import repro
from repro.core.delta import DeltaPayload, OpChainEntry
from repro.core.messages import (
    ItemPayload,
    OutOfBoundReply,
    OutOfBoundRequest,
    PropagationReply,
    PropagationRequest,
    YouAreCurrent,
)
from repro.core.node import EpidemicNode
from repro.core.version_vector import VersionVector
from repro.durable import checkpoint as checkpoint_module
from repro.durable.checkpoint import SnapshotError, encode_checkpoint, load_node
from repro.durable.records import WalResolve, decode_record, encode_record
from repro.durable.wal import WriteAheadLog, frame_record
from repro.errors import WALError, WireFormatError
from repro.substrate.operations import Put
from repro.wire import codec as codec_module
from repro.wire import (
    MAX_SEQUENCE_ITEMS,
    Schema,
    WireCodec,
    codec_for_class,
    codec_for_id,
    registered_codecs,
)
from repro.wire.varint import read_uvarint
from tests.wire_caches import cache_size

SCHEMA = ("a", "b")


def vv(*counts):
    return VersionVector.from_counts(list(counts))


def message_classes(modules):
    """The classes each module defines whose own body defines
    ``wire_size``, the mark of a wire message; ``typing.Protocol``
    shapes are never instantiated and are left out."""
    return [
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and "wire_size" in vars(cls)
        and not getattr(cls, "_is_protocol", False)
    ]


def message_class_faults(modules):
    """Every message class must be ``@dataclass(frozen=True,
    slots=True)``: the simulator hands the recipient the sender's
    object, and a retry replays a session, so a mutable message aliases
    state across endpoints.  Every one in ``repro.core`` must also have
    a codec, or a ``repro.net`` replica raises ``WireFormatError`` the
    first time it ships one."""
    faults = []
    for cls in message_classes(modules):
        name = f"{cls.__module__}.{cls.__qualname__}"
        params = vars(cls).get("__dataclass_params__")
        if params is None or not params.frozen or "__slots__" not in vars(cls):
            faults.append(f"{name} is not @dataclass(frozen=True, slots=True)")
        if cls.__module__.startswith("repro.core."):
            try:
                codec_for_class(cls)
            except WireFormatError:
                faults.append(f"{name} defines wire_size but has no codec")
    return faults


class TestFraming:
    def test_roundtrip_returns_equal_message(self):
        codec = WireCodec(SCHEMA)
        message = PropagationRequest(1, vv(3, 0, 7))
        assert codec.decode(codec.encode(message)) == message

    def test_frame_is_length_prefixed(self):
        codec = WireCodec(SCHEMA)
        frame = codec.encode(YouAreCurrent(5))
        # uvarint(len) + payload; payload = type id 3 + source 5.
        assert frame == bytes([2, 3, 5])

    def test_truncated_frame_raises_typed_error(self):
        codec = WireCodec(SCHEMA)
        frame = codec.encode(PropagationRequest(1, vv(9, 9)))
        for cut in range(len(frame)):
            with pytest.raises(WireFormatError):
                codec.decode(frame[:cut])

    def test_trailing_garbage_raises(self):
        codec = WireCodec(SCHEMA)
        frame = codec.encode(YouAreCurrent(0))
        with pytest.raises(WireFormatError):
            codec.decode(frame + b"\x00")

    def test_unknown_type_id_raises(self):
        with pytest.raises(WireFormatError):
            codec_for_id(255)
        codec = WireCodec(SCHEMA)
        with pytest.raises(WireFormatError):
            codec.decode(bytes([1, 200]))  # 1-byte payload, type 200

    def test_unregistered_class_raises(self):
        class Mystery:
            pass

        with pytest.raises(WireFormatError):
            codec_for_class(Mystery)

    def test_registry_is_populated_and_ordered(self):
        codecs = registered_codecs()
        ids = [codec.type_id for codec in codecs]
        assert ids == sorted(ids)
        assert ids == [1, 2, 3, 5, 6, 7, 8, 10]

    def test_message_classes_are_frozen_slotted_and_registered(self):
        modules = [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
        ]
        assert message_class_faults(modules) == []
        core = {
            cls
            for cls in message_classes(modules)
            if cls.__module__.startswith("repro.core.")
        }
        stale = [
            codec.type_id for codec in registered_codecs() if codec.cls not in core
        ]
        assert stale == []


class TestDeltaVectors:
    def test_unchanged_vector_costs_two_bytes(self):
        codec = WireCodec(SCHEMA)
        message = PropagationRequest(1, vv(5, 6, 7, 8))
        first = codec.encode(message)
        second = codec.encode(message)
        assert codec.decode(first) == message
        assert codec.decode(second) == message
        # Full form: tag + n + 4 components (6 bytes); delta form:
        # tag + zero changes (2 bytes).
        assert len(second) == len(first) - 4

    def test_sparse_delta_charges_only_changed_components(self):
        codec = WireCodec(SCHEMA)
        base = PropagationRequest(1, vv(5, 6, 7, 8, 9, 10, 11, 12))
        codec.decode(codec.encode(base))
        bumped = PropagationRequest(1, vv(5, 6, 7, 8, 9, 10, 11, 13))
        frame = codec.encode(bumped)
        assert codec.decode(frame) == bumped
        quiet = codec.encode(bumped)
        assert len(frame) == len(quiet) + 2  # one (gap, delta) pair extra

    def test_an_item_payload_is_self_contained(self):
        """Only the request's DBVV is cached: an item payload shipped
        twice is the same bytes, and a fresh codec reads it."""
        codec = WireCodec(SCHEMA)
        codec.decode(codec.encode(PropagationRequest(1, vv(1, 2))))
        payload = ItemPayload("a", b"", vv(1, 2))
        first = codec.encode(payload)
        assert codec.encode(payload) == first
        assert WireCodec(SCHEMA).decode(first) == payload

    def test_links_are_directional_and_independent(self):
        """A codec's two directions are separate: the DBVV it sent is
        no base for a delta it receives."""
        codec = WireCodec(SCHEMA)
        message = PropagationRequest(1, vv(4, 4))
        codec.encode(message)
        delta = codec.encode(message)
        with pytest.raises(WireFormatError, match="without a cached base"):
            codec.decode(delta)
        # Seeing a full vector primes the received direction only.
        assert codec.decode(WireCodec(SCHEMA).encode(message)) == message
        assert codec.decode(delta) == message

    def test_delta_without_base_raises(self):
        sender = WireCodec(SCHEMA)
        receiver = WireCodec(SCHEMA)
        message = PropagationRequest(1, vv(1, 1))
        # Prime only the sender, then hand its second (delta) frame to a
        # receiver that never saw the first — the crash/recovery shape.
        sender.encode(message)
        delta_frame = sender.encode(message)
        with pytest.raises(WireFormatError):
            receiver.decode(delta_frame)

    def test_negative_component_rejected(self):
        codec = WireCodec(SCHEMA)
        codec.decode(codec.encode(PropagationRequest(1, vv(5, 5))))
        # Hand-build a delta frame taking component 0 below zero:
        # payload = type 2, recipient 1, tag 0x01, 1 change, gap 0, delta -6.
        payload = bytes([2, 1, 0x01, 1, 0]) + bytes([11])  # zigzag(-6) = 11
        frame = bytes([len(payload)]) + payload
        with pytest.raises(WireFormatError):
            codec.decode(frame)


    def test_component_past_64_bits_rejected(self):
        """The delta branch bounds both ends: a full vector at 2**64 - 1
        followed by ``+1`` on the same link must be a typed error, not
        the ``ValueError`` of the component array."""
        codec = WireCodec(SCHEMA)
        top = PropagationRequest(1, vv(5, 2**64 - 1))
        codec.decode(codec.encode(top))
        # type 2, recipient 1, tag 0x01, 1 change, gap 1, delta +1.
        payload = bytes([2, 1, 0x01, 1, 1, 2])  # zigzag(+1) = 2
        frame = bytes([len(payload)]) + payload
        with pytest.raises(WireFormatError, match="past the 64-bit range"):
            codec.decode(frame)

    @pytest.mark.parametrize(
        "first, then", [((1, 2), (1,)), ((1, 2), (1, 2, 3))], ids=["narrower", "wider"]
    )
    def test_a_request_of_another_width_is_refused_naming_both(self, first, then):
        """A delta cannot carry a width, so a DBVV narrower or wider than
        the last one sent is a typed error, and the link is unharmed."""
        sender, receiver = WireCodec(SCHEMA), WireCodec(SCHEMA)
        receiver.decode(sender.encode(PropagationRequest(1, vv(*first))))
        with pytest.raises(
            WireFormatError, match=f"width {len(then)} after one of width {len(first)}"
        ):
            sender.encode(PropagationRequest(1, vv(*then)))
        bumped = PropagationRequest(1, vv(first[0] + 1, *first[1:]))
        assert receiver.decode(sender.encode(bumped)) == bumped

    def test_mutating_a_decoded_vector_leaves_the_cached_base_alone(self):
        """The receiver's cache keeps the decoded component tuple, so
        whatever the caller does to the vector it was handed, the next
        zero-change delta decodes to what was sent."""
        sender, receiver = WireCodec(SCHEMA), WireCodec(SCHEMA)
        request = PropagationRequest(1, vv(3, 4))
        first = receiver.decode(sender.encode(request))
        first.dbvv.increment(0, 10)
        first.dbvv.merge_from(vv(0, 99))
        again = receiver.decode(sender.encode(request))
        assert again.dbvv == vv(3, 4) and again.dbvv is not first.dbvv
        again.dbvv.increment(1)
        bumped = PropagationRequest(1, vv(3, 5))
        assert receiver.decode(sender.encode(bumped)) == bumped
        assert type(receiver._seen) is tuple


class TestInvalidation:
    """A codec's caches are invalidated by dropping the codec: a
    ``repro.net`` connection owns one, and a torn connection's
    successor starts both ends from empty caches."""

    def test_recovery_sequence_resynchronizes(self):
        sender, receiver = WireCodec(SCHEMA), WireCodec(SCHEMA)
        message = PropagationRequest(1, vv(3, 3))
        receiver.decode(sender.encode(message))
        sender, receiver = WireCodec(SCHEMA), WireCodec(SCHEMA)  # crash + redial
        # Next frame is full again; the stream then re-deltas normally.
        full = sender.encode(message)
        assert receiver.decode(full) == message
        delta = sender.encode(message)
        assert receiver.decode(delta) == message
        assert len(delta) < len(full) and len(delta) < 8


class TestSchema:
    def test_an_item_travels_as_its_position(self):
        codec = WireCodec(("k0", "k1", *(f"k{n}" for n in range(2, 200))))
        frame = codec.encode(OutOfBoundRequest(1, "k150"))
        # uvarint(len) · type id 5 · requester 1 · position 150 (2 bytes)
        assert frame == bytes([4, 5, 1, 150 & 0x7F | 0x80, 150 >> 7])
        decoded = codec.decode(frame)
        assert decoded.item is codec.schema.names[150]

    def test_a_name_outside_the_schema_does_not_encode(self):
        with pytest.raises(WireFormatError, match="not in the schema"):
            WireCodec(SCHEMA).encode(OutOfBoundRequest(1, "c"))

    def test_a_position_past_the_schema_does_not_decode(self):
        frame = WireCodec(("a", "b", "c")).encode(OutOfBoundRequest(1, "c"))
        with pytest.raises(WireFormatError, match="past the 2-item schema"):
            WireCodec(SCHEMA).decode(frame)

    def test_the_digest_covers_names_and_their_order(self):
        digests = {
            Schema(names).digest
            for names in (("a", "b"), ("b", "a"), ("ab",), ("a", "b", ""))
        }
        assert len(digests) == 4
        assert all(len(digest) == 8 for digest in digests)
        assert Schema(["a", "b"]).digest == Schema(("a", "b")).digest

    def test_a_name_twice_is_no_schema(self):
        with pytest.raises(ValueError, match="twice"):
            Schema(("a", "b", "a"))


def reply_with_ivv(*counts):
    payload = ItemPayload("a", b"v", vv(*counts))
    return PropagationReply(1, ((("a", 1),),), (payload,))


class TestSelfContainedReply:
    """A reply's item IVVs are full or sparse against zero, whichever
    is shorter, and read no cache."""

    def test_dense_vectors_travel_full(self):
        codec = WireCodec(SCHEMA)
        frame = codec.encode(reply_with_ivv(3, 5))
        # ... tag 0 · item 0 · b"v" · full: 0x00 · n 2 · 3 · 5 ...
        assert bytes([0, 0, 1]) + b"v" + bytes([0x00, 2, 3, 5]) in frame
        assert codec.decode(frame) == reply_with_ivv(3, 5)

    def test_a_mostly_zero_vector_travels_sparse(self):
        counts = [0] * 32
        counts[7] = 9
        codec = WireCodec(SCHEMA)
        frame = codec.encode(reply_with_ivv(*counts))
        # sparse: 0x02 · n 32 · one component · gap 7 · value 9
        assert bytes([0x02, 32, 1, 7, 9]) in frame
        assert codec.decode(frame) == reply_with_ivv(*counts)

    def test_a_tie_travels_full(self):
        # Sparse would spend the count and one gap to skip two zeros.
        frame = WireCodec(SCHEMA).encode(reply_with_ivv(0, 4, 0))
        assert bytes([0x00, 3, 0, 4, 0]) in frame

    def test_repeated_replies_are_byte_identical(self):
        codec = WireCodec(SCHEMA)
        reply = reply_with_ivv(3, 5)
        first = codec.encode(reply)
        assert codec.decode(first) == reply
        assert codec.encode(reply) == first
        assert cache_size(codec) == 0

    def test_sparse_zeros_are_capped_per_frame(self):
        n = 1 << 20  # MAX_SEQUENCE_ITEMS: each vector alone is legal
        counts = [0] * n
        counts[-1] = 1
        one = ItemPayload("a", b"", vv(*counts))
        codec = WireCodec(SCHEMA)
        frame = codec.encode(PropagationReply(1, (), (one,)))
        assert len(frame) < 20
        assert codec.decode(frame).items == (one,)
        # The writer spends the reader's budget: the second vector,
        # past it, goes full, and the frame decodes.
        twice = codec.encode(PropagationReply(1, (), (one, one)))
        assert n < len(twice) < n + 40
        assert codec.decode(twice).items == (one, one)
        # A writer that ignores the budget is refused.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codec_module, "MAX_SEQUENCE_ITEMS", 2 * n)
            forged = WireCodec(SCHEMA).encode(PropagationReply(1, (), (one, one)))
        assert len(forged) < 40
        with pytest.raises(WireFormatError, match="imply more than"):
            codec.decode(forged)

    def test_a_pull_past_the_budget_decodes(self):
        """6 000 single-writer items at n = 200 imply 199 zeros each,
        past the per-frame budget in all: the reply still decodes."""
        names = [f"k{index}" for index in range(6000)]
        source = EpidemicNode(0, 200, names)
        for name in names:
            source.update(name, Put(b"v"))
        reply = source.send_propagation(
            EpidemicNode(1, 200, names).make_propagation_request()
        )
        assert 6000 * 199 > MAX_SEQUENCE_ITEMS
        assert WireCodec(names).decode(WireCodec(names).encode(reply)) == reply


#: A self-contained (3, 0) — full: one zero does not pay for sparse —
#: and the zero-change cached delta that would stand for it.
FULL_3_0 = bytes([0x00, 2, 3, 0])
CACHED = bytes([0x01, 0])


def _primed(schema=SCHEMA):
    """A codec whose request cache holds (3, 0) in both directions, so
    a cached-delta tag anywhere has a base it could be read against."""
    codec = WireCodec(schema)
    codec.decode(codec.encode(PropagationRequest(1, vv(3, 0))))
    return codec


def _forged_frame(codec, message):
    frame = codec.encode(message)
    _length, start = read_uvarint(frame, 0)
    payload = frame[start:]
    assert payload.count(FULL_3_0) == 1
    payload = payload.replace(FULL_3_0, CACHED)
    return bytes([len(payload)]) + payload


def _item_payload(codec, monkeypatch):
    codec.decode(_forged_frame(codec, ItemPayload("a", b"v", vv(3, 0))))


def _oob_reply(codec, monkeypatch):
    codec.decode(_forged_frame(codec, OutOfBoundReply(1, "a", b"v", vv(3, 0))))


def _delta_payload(codec, monkeypatch):
    entry = OpChainEntry(0, 3, Put(b"v"))
    codec.decode(_forged_frame(codec, DeltaPayload("a", vv(3, 0), (entry,))))


def _wal_resolve_lineage(codec, monkeypatch):
    body = encode_record(codec, 2, WalResolve("a", b"r", vv(3, 0)))
    assert body.count(FULL_3_0) == 1
    decode_record(codec, body.replace(FULL_3_0, CACHED))


def _checkpoint_dbvv(codec, monkeypatch):
    node = EpidemicNode(0, 2, list(SCHEMA))
    for value in (b"x", b"y", b"z"):
        node.update("a", Put(value))
    (body,), _end = WriteAheadLog.scan(bytes(encode_checkpoint(1, node)))
    # lsn 1 · node 0 · 2 nodes · the DBVV
    assert body[3:7] == FULL_3_0
    forged = body[:3] + CACHED + body[7:]
    monkeypatch.setattr(checkpoint_module, "_CODEC", _primed(()))
    load_node(bytes(frame_record(forged)))


SELF_CONTAINED = {
    "item-payload": (_item_payload, WireFormatError),
    "oob-reply": (_oob_reply, WireFormatError),
    "delta-payload": (_delta_payload, WireFormatError),
    "wal-resolve-lineage": (_wal_resolve_lineage, WALError),
    "checkpoint": (_checkpoint_dbvv, SnapshotError),
}


@pytest.mark.parametrize("case", list(SELF_CONTAINED))
def test_the_cached_delta_tag_is_refused_in_every_self_contained_vector(
    case, monkeypatch
):
    """Only a request's DBVV reads the cache: the delta tag anywhere
    else is a typed error, even with a base primed to read it against."""
    forge, error = SELF_CONTAINED[case]
    with pytest.raises(error, match="delta version vector inside a self-contained"):
        forge(_primed(), monkeypatch)
