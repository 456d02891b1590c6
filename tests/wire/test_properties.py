"""Property-based tests for the wire codec.

Three families:

* **round-trip identity** — for *every* registered message class, a
  strategy-built instance must decode back equal to itself (the
  strategy table below is asserted complete against the registry, so
  registering a new message without extending it fails here);
* **the request stream** — a DBVV that climbs and stands still, with
  interleaved crashes and drops, must always decode exactly, because
  every desync trigger tears the connection, retiring both ends'
  codecs, and the next one starts from full form;
* **hostile frames** — truncation and byte corruption must surface as
  :class:`WireFormatError` (or a clean decode), never as
  ``struct.error`` / ``IndexError`` / ``UnicodeDecodeError`` from the
  decoder's guts; for the v3 reply, exhaustively: every prefix and
  every single-bit flip of a frame.
"""

import pytest

from hypothesis import given, settings, strategies as st

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
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())


def test_strategy_table_covers_every_registered_class():
    registered = {codec.cls for codec in registered_codecs()}
    missing = registered - set(MESSAGE_STRATEGIES)
    assert not missing, (
        f"registered wire messages without a round-trip strategy: "
        f"{sorted(cls.__qualname__ for cls in missing)}"
    )
    assert set(MESSAGE_STRATEGIES) <= registered


@settings(max_examples=40)
@given(st.data())
def test_every_registered_class_roundtrips(data):
    codec = WireCodec(SCHEMA)
    for cls, strategy in MESSAGE_STRATEGIES.items():
        message = data.draw(strategy, label=cls.__qualname__)
        frame = codec.encode(message)
        assert codec.decode(frame) == message


@st.composite
def one_connection(draw):
    """What one codec carries: any messages, and requests whose DBVVs
    all cover the one replica set of the node that sends them."""
    width = draw(st.integers(1, 8))
    counts = st.one_of(st.just(0), st.integers(0, 2**48))
    requests = st.builds(
        PropagationRequest,
        node_ids,
        st.lists(counts, min_size=width, max_size=width).map(
            VersionVector.from_counts
        ),
    )
    others = [
        strategy
        for cls, strategy in MESSAGE_STRATEGIES.items()
        if cls is not PropagationRequest
    ]
    return draw(st.lists(st.one_of(requests, *others), min_size=1, max_size=8))


@given(one_connection())
def test_streamed_messages_roundtrip_through_shared_caches(messages):
    codec = WireCodec(SCHEMA)
    for message in messages:
        assert codec.decode(codec.encode(message)) == message


#: How the puller's DBVV moves between two requests: a component
#: climbs, or nothing changes (the quiescent probe).
dbvv_steps = st.one_of(
    st.tuples(st.just("bump"), st.integers(0, 15), st.integers(1, 2**32)),
    st.just(("same", 0, 0)),
)


@given(
    st.lists(
        st.tuples(dbvv_steps, st.sampled_from(["send", "send", "crash", "drop"])),
        min_size=1,
        max_size=30,
    )
)
def test_delta_streams_survive_crashes_and_drops(events):
    """One request stream over a sender/receiver pair: any interleaving
    of sends, node crashes, and in-flight drops decodes exactly,
    provided each crash or drop tears the connection and both ends
    start the next one with fresh codecs, as ``repro.net`` does."""
    counts = [0, 0]
    sender, receiver = WireCodec(SCHEMA), WireCodec(SCHEMA)
    for (step, index, amount), event in events:
        if step == "bump":
            counts[index % len(counts)] += amount
        message = PropagationRequest(1, VersionVector.from_counts(counts))
        if event == "drop":
            # The frame left the sender (advancing its cache) but never
            # reached the receiver.
            sender.encode(message)
        if event != "send":
            sender, receiver = WireCodec(SCHEMA), WireCodec(SCHEMA)
        decoded = receiver.decode(sender.encode(message))
        assert decoded.dbvv.as_tuple() == tuple(counts)


@settings(max_examples=60)
@given(any_message, st.integers(0, 200))
def test_truncated_frames_raise_typed_error(message, cut):
    codec = WireCodec(SCHEMA)
    frame = codec.encode(message)
    cut = min(cut, len(frame) - 1)
    try:
        codec.decode(frame[:cut])
    except WireFormatError:
        pass
    else:
        raise AssertionError("truncated frame decoded without error")


@settings(max_examples=60)
@given(any_message, st.integers(0, 200), st.integers(1, 255))
def test_corrupt_frames_never_raise_untyped_errors(message, index, flip):
    codec = WireCodec(SCHEMA)
    frame = bytearray(codec.encode(message))
    frame[index % len(frame)] ^= flip
    try:
        codec.decode(bytes(frame))
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
    frame = WireCodec(SCHEMA).encode(reply)
    for cut in range(len(frame)):
        with pytest.raises(WireFormatError):
            WireCodec(SCHEMA).decode(frame[:cut])


# No deadline: one example decodes 8 x len(frame) forged frames, which
# for a frame of a few hundred bytes can outlast Hypothesis's default
# 200 ms deadline (a DeadlineExceeded, not a codec error).
@settings(max_examples=40, deadline=None)
@given(replies())
def test_every_bit_flip_of_a_reply_frame_decodes_or_is_a_typed_error(reply):
    """Nothing but :class:`WireFormatError` may escape — no
    ``IndexError`` from a tail index, no ``RecursionError`` from an item
    type id flipped into a nesting message, no ``OverflowError``."""
    frame = WireCodec(SCHEMA).encode(reply)
    for position in range(len(frame)):
        for bit in range(8):
            forged = bytearray(frame)
            forged[position] ^= 1 << bit
            try:
                WireCodec(SCHEMA).decode(bytes(forged))
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
        WireCodec(SCHEMA).encode(forged)


def test_a_reply_ships_payloads_only():
    for stowaway in (YouAreCurrent(1), PropagationReply(1, (), ())):
        with pytest.raises(WireFormatError, match="ItemPayload or DeltaPayload"):
            WireCodec(SCHEMA).encode(PropagationReply(1, (), (stowaway,)))
