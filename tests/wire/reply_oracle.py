"""The v3 reply body written and read one field at a time.

A test oracle, not a codec: :mod:`repro.wire.codecs` writes and reads
the reply in one loop per section, and ``tests/wire/test_reply_oracle.py``
holds it to these two functions, which spell the body field by field
through the :class:`~repro.wire.codec.Encoder` and
:class:`~repro.wire.codec.Decoder` primitives exactly as the grammar in
the ``repro.wire.codecs`` docstring reads.
"""

from repro.core.delta import DeltaPayload, OpChainEntry
from repro.core.messages import ItemPayload, PropagationReply
from repro.errors import WireFormatError
from repro.wire.codec import Decoder, Encoder
from repro.wire.codecs import decode_wire_op, encode_wire_op

WHOLE_VALUE = 0
OP_CHAIN = 1


def encode_reply(enc: Encoder, msg: PropagationReply) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.items))
    index_of: dict[str, int] = {}
    for index, payload in enumerate(msg.items):
        if type(payload) is ItemPayload:
            enc.uvarint(WHOLE_VALUE)
            enc.item(payload.name)
            enc.bytes_(payload.value)
            enc.vv(payload.ivv)
        elif type(payload) is DeltaPayload:
            enc.uvarint(OP_CHAIN)
            enc.item(payload.name)
            enc.vv(payload.ivv)
            enc.uvarint(len(payload.ops))
            for entry in payload.ops:
                enc.uvarint(entry.origin)
                enc.uvarint(entry.m)
                encode_wire_op(enc, entry.op)
        else:
            raise WireFormatError(
                f"a reply ships ItemPayload or DeltaPayload, "
                f"not {type(payload).__qualname__}"
            )
        index_of[payload.name] = index
    enc.uvarint(len(msg.tails))
    for tail in msg.tails:
        enc.uvarint(len(tail))
        previous = 0
        for name, seqno in tail:
            if name not in index_of:
                raise WireFormatError(
                    f"reply tail names item {name!r} that the reply does not ship"
                )
            enc.uvarint(index_of[name])
            enc.svarint(seqno - previous)
            previous = seqno


def decode_reply(dec: Decoder) -> PropagationReply:
    source = dec.uvarint()
    items: list[ItemPayload | DeltaPayload] = []
    for _ in range(dec.count()):
        tag = dec.uvarint()
        if tag == WHOLE_VALUE:
            name = dec.item()
            value = dec.bytes_()
            items.append(ItemPayload(name, value, dec.vv()))
        elif tag == OP_CHAIN:
            name = dec.item()
            ivv = dec.vv()
            ops = tuple(
                OpChainEntry(dec.uvarint(), dec.uvarint(), decode_wire_op(dec))
                for _ in range(dec.count())
            )
            items.append(DeltaPayload(name, ivv, ops))
        else:
            raise WireFormatError(f"reply item has payload tag {tag}")
    names = [payload.name for payload in items]
    tails = []
    for _ in range(dec.count()):
        tail = []
        seqno = 0
        for _ in range(dec.count()):
            index = dec.uvarint()
            if index >= len(names):
                raise WireFormatError(
                    f"reply tail record points at item {index} of {len(names)}"
                )
            seqno += dec.svarint()
            tail.append((names[index], seqno))
        tails.append(tuple(tail))
    return PropagationReply(source, tuple(tails), tuple(items))
