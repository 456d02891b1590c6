"""Unit tests for framing, delta-compressed vectors, and cache rules."""

import pytest

import repro.baselines  # noqa: F401  (registers type ids 16-50)
from repro.core.messages import (
    ItemPayload,
    OutOfBoundRequest,
    PropagationReply,
    PropagationRequest,
    YouAreCurrent,
)
from repro.core.version_vector import VersionVector
from repro.errors import WireFormatError
from repro.wire import (
    Schema,
    WireCodec,
    codec_for_class,
    codec_for_id,
    registered_codecs,
)
from tests.wire_caches import cache_size

SCHEMA = ("a", "b")


def vv(*counts):
    return VersionVector.from_counts(list(counts))


class TestFraming:
    def test_roundtrip_returns_equal_message(self):
        codec = WireCodec(SCHEMA)
        message = PropagationRequest(1, vv(3, 0, 7))
        assert codec.decode(0, 1, codec.encode(0, 1, message)) == message

    def test_frame_is_length_prefixed(self):
        codec = WireCodec(SCHEMA)
        frame = codec.encode(0, 1, YouAreCurrent(5))
        # uvarint(len) + payload; payload = type id 3 + source 5.
        assert frame == bytes([2, 3, 5])

    def test_truncated_frame_raises_typed_error(self):
        codec = WireCodec(SCHEMA)
        frame = codec.encode(0, 1, PropagationRequest(1, vv(9, 9)))
        for cut in range(len(frame)):
            with pytest.raises(WireFormatError):
                codec.decode(0, 1, frame[:cut])

    def test_trailing_garbage_raises(self):
        codec = WireCodec(SCHEMA)
        frame = codec.encode(0, 1, YouAreCurrent(0))
        with pytest.raises(WireFormatError):
            codec.decode(0, 1, frame + b"\x00")

    def test_unknown_type_id_raises(self):
        with pytest.raises(WireFormatError):
            codec_for_id(255)
        codec = WireCodec(SCHEMA)
        with pytest.raises(WireFormatError):
            codec.decode(0, 1, bytes([1, 200]))  # 1-byte payload, type 200

    def test_unregistered_class_raises(self):
        class Mystery:
            pass

        with pytest.raises(WireFormatError):
            codec_for_class(Mystery)

    def test_registry_is_populated_and_ordered(self):
        codecs = registered_codecs()
        ids = [codec.type_id for codec in codecs]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        assert len(codecs) >= 25


class TestDeltaVectors:
    def test_unchanged_vector_costs_two_bytes(self):
        codec = WireCodec(SCHEMA)
        message = PropagationRequest(1, vv(5, 6, 7, 8))
        first = codec.encode(0, 1, message)
        second = codec.encode(0, 1, message)
        assert codec.decode(0, 1, first) == message
        assert codec.decode(0, 1, second) == message
        # Full form: tag + n + 4 components (6 bytes); delta form:
        # tag + zero changes (2 bytes).
        assert len(second) == len(first) - 4

    def test_sparse_delta_charges_only_changed_components(self):
        codec = WireCodec(SCHEMA)
        base = PropagationRequest(1, vv(5, 6, 7, 8, 9, 10, 11, 12))
        codec.decode(0, 1, codec.encode(0, 1, base))
        bumped = PropagationRequest(1, vv(5, 6, 7, 8, 9, 10, 11, 13))
        frame = codec.encode(0, 1, bumped)
        assert codec.decode(0, 1, frame) == bumped
        quiet = codec.encode(0, 1, bumped)
        assert len(frame) == len(quiet) + 2  # one (gap, delta) pair extra

    def test_delta_disabled_always_sends_full(self):
        codec = WireCodec(SCHEMA, delta_vv=False)
        message = PropagationRequest(1, vv(5, 6, 7))
        first = codec.encode(0, 1, message)
        second = codec.encode(0, 1, message)
        assert first == second
        assert cache_size(codec) == 0

    def test_streams_are_independent(self):
        codec = WireCodec(SCHEMA)
        a = ItemPayload("a", b"", vv(1, 2))
        b = ItemPayload("b", b"", vv(1, 2))
        codec.decode(0, 1, codec.encode(0, 1, a))
        # Item b's first shipment must be full: "a"'s cache is not its.
        frame = codec.encode(0, 1, b)
        assert codec.decode(0, 1, frame) == b

    def test_links_are_directional_and_independent(self):
        codec = WireCodec(SCHEMA)
        message = PropagationRequest(1, vv(4, 4))
        codec.decode(0, 1, codec.encode(0, 1, message))
        # The reverse direction has no cache: full vector again.
        frame = codec.encode(1, 0, message)
        assert codec.decode(1, 0, frame) == message

    def test_membership_growth_falls_back_to_full(self):
        codec = WireCodec(SCHEMA)
        codec.decode(0, 1, codec.encode(0, 1, PropagationRequest(1, vv(1, 2))))
        grown = PropagationRequest(1, vv(1, 2, 0))
        frame = codec.encode(0, 1, grown)
        assert codec.decode(0, 1, frame) == grown

    def test_delta_without_base_raises(self):
        sender = WireCodec(SCHEMA)
        receiver = WireCodec(SCHEMA)
        message = PropagationRequest(1, vv(1, 1))
        # Prime only the sender, then hand its second (delta) frame to a
        # receiver that never saw the first — the crash/recovery shape.
        sender.encode(0, 1, message)
        delta_frame = sender.encode(0, 1, message)
        with pytest.raises(WireFormatError):
            receiver.decode(0, 1, delta_frame)

    def test_negative_component_rejected(self):
        codec = WireCodec(SCHEMA)
        codec.decode(0, 1, codec.encode(0, 1, PropagationRequest(1, vv(5, 5))))
        # Hand-build a delta frame taking component 0 below zero:
        # payload = type 2, recipient 1, tag 0x01, 1 change, gap 0, delta -6.
        payload = bytes([2, 1, 0x01, 1, 0]) + bytes([11])  # zigzag(-6) = 11
        frame = bytes([len(payload)]) + payload
        with pytest.raises(WireFormatError):
            codec.decode(0, 1, frame)


    def test_component_past_64_bits_rejected(self):
        """The delta branch bounds both ends: a full vector at 2**64 - 1
        followed by ``+1`` on the same stream must be a typed error, not
        the ``ValueError`` of the component array."""
        codec = WireCodec(SCHEMA)
        top = PropagationRequest(1, vv(5, 2**64 - 1))
        codec.decode(0, 1, codec.encode(0, 1, top))
        # type 2, recipient 1, tag 0x01, 1 change, gap 1, delta +1.
        payload = bytes([2, 1, 0x01, 1, 1, 2])  # zigzag(+1) = 2
        frame = bytes([len(payload)]) + payload
        with pytest.raises(WireFormatError, match="past the 64-bit range"):
            codec.decode(0, 1, frame)

    def test_mutating_a_decoded_vector_leaves_the_cached_base_alone(self):
        """The receiver's cache keeps the decoded component tuple, so
        whatever the caller does to the vector it was handed, the next
        zero-change delta on that stream decodes to what was sent."""
        sender, receiver = WireCodec(SCHEMA), WireCodec(SCHEMA)
        payload = ItemPayload("a", b"v", vv(3, 4))
        first = receiver.decode(0, 1, sender.encode(0, 1, payload))
        first.ivv.increment(0, 10)
        first.ivv.merge_from(vv(0, 99))
        again = receiver.decode(0, 1, sender.encode(0, 1, payload))
        assert again.ivv == vv(3, 4) and again.ivv is not first.ivv
        again.ivv.increment(1)
        bumped = ItemPayload("a", b"v", vv(3, 5))
        assert receiver.decode(0, 1, sender.encode(0, 1, bumped)) == bumped
        assert type(receiver._seen[(0, 1)]["ivv:a"]) is tuple


class TestInvalidation:
    def test_invalidate_link_clears_only_that_direction(self):
        codec = WireCodec(SCHEMA)
        message = PropagationRequest(1, vv(2, 2))
        codec.decode(0, 1, codec.encode(0, 1, message))
        codec.decode(2, 1, codec.encode(2, 1, message))
        before = cache_size(codec)
        codec.invalidate_link(0, 1)
        assert cache_size(codec) == before - 2  # one _sent + one _seen
        # The surviving link still delta-decodes fine.
        assert codec.decode(2, 1, codec.encode(2, 1, message)) == message

    def test_invalidate_node_clears_both_roles(self):
        codec = WireCodec(SCHEMA)
        message = PropagationRequest(1, vv(2, 2, 2))
        codec.decode(0, 1, codec.encode(0, 1, message))
        codec.decode(1, 2, codec.encode(1, 2, message))
        codec.decode(0, 2, codec.encode(0, 2, message))
        codec.invalidate_node(1)
        remaining = set(codec._sent) | set(codec._seen)
        assert all(1 not in key[:2] for key in remaining)
        assert remaining  # 0->2 survived

    def test_recovery_sequence_resynchronizes(self):
        codec = WireCodec(SCHEMA)
        message = PropagationRequest(1, vv(3, 3))
        codec.decode(0, 1, codec.encode(0, 1, message))
        codec.invalidate_node(1)  # crash + recovery
        # Next frame is full again; the stream then re-deltas normally.
        assert codec.decode(0, 1, codec.encode(0, 1, message)) == message
        delta = codec.encode(0, 1, message)
        assert codec.decode(0, 1, delta) == message
        assert len(delta) < 8


class TestSchema:
    def test_an_item_travels_as_its_position(self):
        codec = WireCodec(("k0", "k1", *(f"k{n}" for n in range(2, 200))))
        frame = codec.encode(0, 1, OutOfBoundRequest(1, "k150"))
        # uvarint(len) · type id 5 · requester 1 · position 150 (2 bytes)
        assert frame == bytes([4, 5, 1, 150 & 0x7F | 0x80, 150 >> 7])
        decoded = codec.decode(0, 1, frame)
        assert decoded.item is codec.schema.names[150]

    def test_a_name_outside_the_schema_does_not_encode(self):
        with pytest.raises(WireFormatError, match="not in the schema"):
            WireCodec(SCHEMA).encode(0, 1, OutOfBoundRequest(1, "c"))

    def test_a_position_past_the_schema_does_not_decode(self):
        frame = WireCodec(("a", "b", "c")).encode(0, 1, OutOfBoundRequest(1, "c"))
        with pytest.raises(WireFormatError, match="past the 2-item schema"):
            WireCodec(SCHEMA).decode(0, 1, frame)

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
        frame = codec.encode(1, 0, reply_with_ivv(3, 5))
        # ... tag 0 · item 0 · b"v" · full: 0x00 · n 2 · 3 · 5 ...
        assert bytes([0, 0, 1]) + b"v" + bytes([0x00, 2, 3, 5]) in frame
        assert codec.decode(1, 0, frame) == reply_with_ivv(3, 5)

    def test_a_mostly_zero_vector_travels_sparse(self):
        counts = [0] * 32
        counts[7] = 9
        codec = WireCodec(SCHEMA)
        frame = codec.encode(1, 0, reply_with_ivv(*counts))
        # sparse: 0x02 · n 32 · one component · gap 7 · value 9
        assert bytes([0x02, 32, 1, 7, 9]) in frame
        assert codec.decode(1, 0, frame) == reply_with_ivv(*counts)

    def test_a_tie_travels_full(self):
        # Sparse would spend the count and one gap to skip two zeros.
        frame = WireCodec(SCHEMA).encode(1, 0, reply_with_ivv(0, 4, 0))
        assert bytes([0x00, 3, 0, 4, 0]) in frame

    def test_repeated_replies_are_byte_identical(self):
        codec = WireCodec(SCHEMA)
        reply = reply_with_ivv(3, 5)
        first = codec.encode(1, 0, reply)
        assert codec.decode(1, 0, first) == reply
        assert codec.encode(1, 0, reply) == first
        assert cache_size(codec) == 0

    def test_sparse_zeros_are_capped_per_frame(self):
        n = 1 << 20  # MAX_SEQUENCE_ITEMS: each vector alone is legal
        counts = [0] * n
        counts[-1] = 1
        one = ItemPayload("a", b"", vv(*counts))
        codec = WireCodec(SCHEMA)
        frame = codec.encode(1, 0, PropagationReply(1, (), (one,)))
        assert len(frame) < 20
        assert codec.decode(1, 0, frame).items == (one,)
        twice = codec.encode(1, 0, PropagationReply(1, (), (one, one)))
        with pytest.raises(WireFormatError, match="imply more than"):
            codec.decode(1, 0, twice)
