"""Property-based tests for the wire codec.

Three families:

* **round-trip identity** — for *every* registered message class, a
  strategy-built instance must decode back equal to itself (the
  strategy table below is asserted complete against the registry, so
  registering a new message without extending it fails here);
* **delta streams** — arbitrary vector sequences with interleaved
  crash/drop invalidations must always decode exactly, because every
  desync trigger either invalidates the caches or falls back to full
  form;
* **hostile frames** — truncation and byte corruption must surface as
  :class:`WireFormatError` (or a clean decode), never as
  ``struct.error`` / ``IndexError`` / ``UnicodeDecodeError`` from the
  decoder's guts; for the v3 reply, exhaustively: every prefix and
  every single-bit flip of a frame.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.baselines.agrawal_malpani import (
    AMRecord,
    _LogPush,
    _RepairRequest,
    _VectorExchange,
)
from repro.baselines.lotus import (
    _ChangeList,
    _DocFetch,
    _DocShipment,
    _PropagationProbe,
)
from repro.baselines.oracle import UpdateRecord, _PushBatch
from repro.baselines.per_item import (
    _ItemFetch,
    _ItemShipment,
    _IVVListReply,
    _IVVListRequest,
)
from repro.baselines.wuu_bernstein import (
    GossipRecord,
    _GossipMessage,
    _GossipRequest,
)
from repro.core.delta import DeltaPayload, OpChainEntry
from repro.core.messages import (
    ItemPayload,
    OutOfBoundReply,
    OutOfBoundRequest,
    PropagationReply,
    PropagationRequest,
    YouAreCurrent,
)
from repro.core.version_vector import VersionVector
from repro.errors import WireFormatError
from repro.substrate.operations import (
    Append,
    BytePatch,
    CounterAdd,
    Put,
    Truncate,
)
from repro.wire import Schema, WireCodec, registered_codecs

#: The item schema every codec here holds: odd names, and enough of
#: them that positions past 127 take two bytes.  Built once: the loops
#: below make a codec per frame.
SCHEMA = Schema(("", "a", "ü-ñ", "x" * 40, *(f"item-{k}" for k in range(300))))

node_ids = st.integers(0, 40)
seqnos = st.integers(0, 2**48)
names = st.sampled_from(SCHEMA.names)
values = st.binary(max_size=48)
#: Zero-heavy as often as not, so a reply's item vectors take the
#: sparse form as well as the full one.
vectors = st.lists(
    st.one_of(st.just(0), st.integers(0, 2**48)), min_size=1, max_size=8
).map(VersionVector.from_counts)
operations = st.one_of(
    st.builds(Put, values),
    st.builds(Append, values),
    st.builds(BytePatch, st.integers(0, 2**32), values),
    st.builds(Truncate, st.integers(0, 2**32)),
    st.builds(CounterAdd, st.integers(-(2**48), 2**48)),
)
op_entries = st.builds(OpChainEntry, node_ids, seqnos, operations)
item_payloads = st.builds(ItemPayload, names, values, vectors)
delta_payloads = st.builds(
    DeltaPayload,
    names,
    vectors,
    st.lists(op_entries, max_size=4).map(tuple),
)


@st.composite
def replies(draw):
    """A reply as the codec can carry it: the tail vector D names only
    items of the shipped set S — in any order, with any seqnos (whether
    they climb is the recipient's validator's business, not the
    format's)."""
    items = draw(
        st.lists(st.one_of(item_payloads, delta_payloads), max_size=4).map(tuple)
    )
    shipped = [payload.name for payload in items]
    tail = (
        st.lists(st.tuples(st.sampled_from(shipped), seqnos), max_size=3)
        if shipped
        else st.just([])
    )
    tails = draw(st.lists(tail.map(tuple), max_size=3))
    return PropagationReply(draw(node_ids), tuple(tails), items)


lww_fields = (names, values, seqnos, node_ids)
writer_ids = st.integers(-1, 40)


def _square_tables(draw_n=st.integers(0, 4)):
    return draw_n.flatmap(
        lambda n: st.lists(
            st.lists(seqnos, min_size=n, max_size=n).map(tuple),
            min_size=n,
            max_size=n,
        ).map(tuple)
    )


#: class -> instance strategy; asserted complete against the registry.
MESSAGE_STRATEGIES = {
    ItemPayload: item_payloads,
    PropagationRequest: st.builds(PropagationRequest, node_ids, vectors),
    YouAreCurrent: st.builds(YouAreCurrent, node_ids),
    PropagationReply: replies(),
    OutOfBoundRequest: st.builds(OutOfBoundRequest, node_ids, names),
    OutOfBoundReply: st.builds(OutOfBoundReply, node_ids, names, values, vectors),
    OpChainEntry: op_entries,
    DeltaPayload: delta_payloads,
    UpdateRecord: st.builds(UpdateRecord, *lww_fields),
    _PushBatch: st.builds(
        _PushBatch,
        node_ids,
        st.lists(st.builds(UpdateRecord, *lww_fields), max_size=4).map(tuple),
    ),
    AMRecord: st.builds(AMRecord, *lww_fields),
    _LogPush: st.builds(
        _LogPush,
        node_ids,
        st.lists(st.builds(AMRecord, *lww_fields), max_size=4).map(tuple),
    ),
    _VectorExchange: st.builds(
        _VectorExchange, node_ids, st.lists(seqnos, max_size=8).map(tuple)
    ),
    _RepairRequest: st.builds(
        _RepairRequest,
        node_ids,
        st.lists(st.tuples(node_ids, seqnos), max_size=4).map(tuple),
    ),
    _IVVListRequest: st.builds(_IVVListRequest, node_ids),
    _IVVListReply: st.builds(
        _IVVListReply,
        node_ids,
        st.lists(st.tuples(names, vectors), max_size=4).map(tuple),
    ),
    _ItemFetch: st.builds(
        _ItemFetch, node_ids, st.lists(names, max_size=4).map(tuple)
    ),
    _ItemShipment: st.builds(
        _ItemShipment, node_ids, st.lists(item_payloads, max_size=4).map(tuple)
    ),
    _PropagationProbe: st.builds(_PropagationProbe, node_ids),
    _ChangeList: st.builds(
        _ChangeList,
        node_ids,
        st.lists(st.tuples(names, seqnos, writer_ids), max_size=4).map(tuple),
    ),
    _DocFetch: st.builds(
        _DocFetch, node_ids, st.lists(names, max_size=4).map(tuple)
    ),
    _DocShipment: st.builds(
        _DocShipment,
        node_ids,
        st.lists(st.tuples(names, values, seqnos, writer_ids), max_size=4).map(
            tuple
        ),
    ),
    GossipRecord: st.builds(GossipRecord, *lww_fields),
    _GossipMessage: st.builds(
        _GossipMessage,
        node_ids,
        _square_tables(),
        st.lists(st.builds(GossipRecord, *lww_fields), max_size=4).map(tuple),
    ),
    _GossipRequest: st.builds(_GossipRequest, node_ids),
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())


def test_strategy_table_covers_every_registered_class():
    registered = {codec.cls for codec in registered_codecs()}
    missing = registered - set(MESSAGE_STRATEGIES)
    assert not missing, (
        f"registered wire messages without a round-trip strategy: "
        f"{sorted(cls.__qualname__ for cls in missing)}"
    )


@settings(max_examples=40)
@given(st.data())
def test_every_registered_class_roundtrips(data):
    codec = WireCodec(SCHEMA)
    for cls, strategy in MESSAGE_STRATEGIES.items():
        message = data.draw(strategy, label=cls.__qualname__)
        frame = codec.encode(0, 1, message)
        assert codec.decode(0, 1, frame) == message


@given(st.lists(any_message, min_size=1, max_size=8))
def test_streamed_messages_roundtrip_through_shared_caches(messages):
    codec = WireCodec(SCHEMA)
    for message in messages:
        assert codec.decode(2, 3, codec.encode(2, 3, message)) == message


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 2**32), min_size=4, max_size=4),
            st.sampled_from(["send", "crash", "drop"]),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_delta_streams_survive_crashes_and_drops(events):
    """Any interleaving of sends, node crashes, and in-flight drops
    decodes exactly, provided the two invalidation hooks the network
    calls are honoured."""
    codec = WireCodec(SCHEMA)
    for counts, event in events:
        message = PropagationRequest(1, VersionVector.from_counts(counts))
        if event == "crash":
            codec.invalidate_node(1)
        elif event == "drop":
            # The frame left the sender (advancing _sent) but never
            # reached the receiver: network calls invalidate_link.
            codec.encode(0, 1, message)
            codec.invalidate_link(0, 1)
        decoded = codec.decode(0, 1, codec.encode(0, 1, message))
        assert decoded.dbvv.as_tuple() == tuple(counts)


@settings(max_examples=60)
@given(any_message, st.integers(0, 200))
def test_truncated_frames_raise_typed_error(message, cut):
    codec = WireCodec(SCHEMA)
    frame = codec.encode(0, 1, message)
    cut = min(cut, len(frame) - 1)
    try:
        codec.decode(4, 5, frame[:cut])
    except WireFormatError:
        pass
    else:
        raise AssertionError("truncated frame decoded without error")


@settings(max_examples=60)
@given(any_message, st.integers(0, 200), st.integers(1, 255))
def test_corrupt_frames_never_raise_untyped_errors(message, index, flip):
    codec = WireCodec(SCHEMA)
    frame = bytearray(codec.encode(0, 1, message))
    frame[index % len(frame)] ^= flip
    try:
        codec.decode(4, 5, bytes(frame))
    except WireFormatError:
        pass  # the typed rejection path
    except (OverflowError, MemoryError):
        raise  # would indicate a missing bound check — fail loudly
    # A corrupt frame may also decode to *some* message; what it must
    # never do is leak struct.error / IndexError / UnicodeDecodeError.


# -- the v3 reply (type id 10), exhaustively ---------------------------------


@settings(max_examples=40)
@given(replies())
def test_every_prefix_of_a_reply_frame_is_a_typed_error(reply):
    frame = WireCodec(SCHEMA).encode(0, 1, reply)
    for cut in range(len(frame)):
        with pytest.raises(WireFormatError):
            WireCodec(SCHEMA).decode(0, 1, frame[:cut])


@settings(max_examples=40)
@given(replies())
def test_every_bit_flip_of_a_reply_frame_decodes_or_is_a_typed_error(reply):
    """Nothing but :class:`WireFormatError` may escape — no
    ``IndexError`` from a tail index, no ``RecursionError`` from an item
    type id flipped into a nesting message, no ``OverflowError``."""
    frame = WireCodec(SCHEMA).encode(0, 1, reply)
    for position in range(len(frame)):
        for bit in range(8):
            forged = bytearray(frame)
            forged[position] ^= 1 << bit
            try:
                WireCodec(SCHEMA).decode(0, 1, bytes(forged))
            except WireFormatError:
                pass


@given(replies(), st.integers(0, 2), names, seqnos)
def test_a_tail_naming_an_unshipped_item_does_not_encode(
    reply, origin, stranger, seqno
):
    shipped = {payload.name for payload in reply.items}
    if stranger in shipped:
        stranger = max(shipped, key=len) + "+"
    tails = list(reply.tails) + [()] * (origin + 1 - len(reply.tails))
    tails[origin] += ((stranger, seqno),)
    forged = PropagationReply(reply.source, tuple(tails), reply.items)
    with pytest.raises(WireFormatError, match="does not ship"):
        WireCodec(SCHEMA).encode(0, 1, forged)


def test_a_reply_ships_payloads_only():
    for stowaway in (YouAreCurrent(1), PropagationReply(1, (), ())):
        with pytest.raises(WireFormatError, match="ItemPayload or DeltaPayload"):
            WireCodec(SCHEMA).encode(0, 1, PropagationReply(1, (), (stowaway,)))
