"""The reply codec against the field-by-field oracle.

:mod:`repro.wire.codecs` writes and reads a ``PropagationReply`` in one
loop per section; ``reply_oracle`` spells the same body one
:class:`~repro.wire.codec.Encoder`/:class:`~repro.wire.codec.Decoder`
primitive call per field.  Every reply must encode to the oracle's
bytes, and every frame — honest, cut short or corrupted — must decode
exactly as the oracle reads it: to an equal reply at the same end
position, or to a :class:`WireFormatError` on both sides.
"""

from hypothesis import given, settings, strategies as st

from repro.core.delta import DeltaPayload, OpChainEntry
from repro.core.messages import ItemPayload, PropagationReply
from repro.core.version_vector import VersionVector
from repro.errors import WireFormatError
from repro.substrate.operations import CounterAdd, Put
from repro.wire import Schema, WireCodec
from repro.wire.codec import Decoder, Encoder
from repro.wire.registry import codec_for_id
from repro.wire.varint import read_uvarint
from tests.wire import reply_oracle

SCHEMA = Schema(f"item-{k}" for k in range(300))
REPLY_ID = 10

#: Components on both sides of every width the inline paths switch on.
components = st.one_of(
    st.integers(1, 127), st.integers(128, 2**14 + 1), st.integers(0, 2**64 - 1)
)
#: One-byte, any, or zero-heavy: full vectors of one-byte components,
#: full vectors that are not, and vectors that go sparse.
component_mixes = st.sampled_from(
    (st.integers(0, 127), components, st.one_of(st.just(0), components))
)
vectors = st.tuples(st.sampled_from((0, 1, 2, 3, 5, 127, 128, 130)), component_mixes).flatmap(
    lambda shape: st.lists(shape[1], min_size=shape[0], max_size=shape[0])
).map(VersionVector.from_counts)


names = st.sampled_from(SCHEMA.names)
values = st.one_of(st.binary(max_size=4), st.binary(min_size=126, max_size=130))
op_entries = st.builds(
    OpChainEntry,
    st.integers(0, 3),
    st.integers(0, 2**20),
    st.one_of(st.builds(Put, values), st.builds(CounterAdd, st.integers(-300, 300))),
)
payloads = st.one_of(
    st.builds(ItemPayload, names, values, vectors),
    st.builds(DeltaPayload, names, vectors, st.lists(op_entries, max_size=2).map(tuple)),
)
positions = st.integers(0, 2**16)
#: Steps on both sides of the one-byte zigzag range, and far past it.
seqno_steps = st.one_of(
    st.sampled_from((-65, -64, -1, 0, 1, 63, 64)), st.integers(-(2**40), 2**40)
)


@st.composite
def replies(draw):
    items = tuple(draw(st.lists(payloads, max_size=5)))
    shipped = [payload.name for payload in items]
    tails = []
    for _ in range(draw(st.integers(0, 3))):
        tail = []
        seqno = 0
        records = draw(st.lists(st.sampled_from(shipped), max_size=4)) if shipped else []
        for name in records:
            seqno = max(0, seqno + draw(seqno_steps))
            tail.append((name, seqno))
        tails.append(tuple(tail))
    return PropagationReply(draw(st.integers(0, 300)), tuple(tails), items)


def _oracle_body(reply: PropagationReply) -> bytes:
    encoder = Encoder(WireCodec(SCHEMA))
    encoder.uvarint(REPLY_ID)
    reply_oracle.encode_reply(encoder, reply)
    return bytes(encoder.buf)


def _read(read, body: bytes):
    decoder = Decoder(WireCodec(SCHEMA), body)
    try:
        return read(decoder), decoder.pos
    except WireFormatError:
        return None


def _both(body: bytes):
    return (
        _read(codec_for_id(REPLY_ID).decode, body),
        _read(reply_oracle.decode_reply, body),
    )


@settings(max_examples=100)
@given(replies())
def test_a_reply_encodes_to_the_oracles_bytes(reply):
    frame = WireCodec(SCHEMA).encode(reply)
    _length, start = read_uvarint(frame, 0)
    assert frame[start:] == _oracle_body(reply)
    assert WireCodec(SCHEMA).decode(frame) == reply


@settings(max_examples=100)
@given(replies(), st.lists(st.tuples(positions, st.integers(1, 255)), max_size=3), positions)
def test_a_damaged_body_decodes_as_the_oracle_reads_it(reply, flips, cut):
    body = bytearray(_oracle_body(reply)[1:])
    for index, flip in flips:
        body[index % len(body)] ^= flip
    for candidate in (bytes(body), bytes(body[: cut % (len(body) + 1)])):
        ours, oracle = _both(candidate)
        assert ours == oracle
