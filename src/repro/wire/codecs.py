"""The core protocol's codecs and the stable type-id table (ids 1–3, 5–8, 10).

Importing this module registers an encode/decode pair for every
``wire_size`` class of the DBVV protocol itself — the session and
out-of-bound messages and the operation-shipping payloads: the whole
registry, and all a :mod:`repro.net` replica ships.  A new
``repro.core`` message class without a registration (or a registration
whose class lost its ``wire_size``) fails
``tests/wire/test_codec.py::TestFraming::test_message_classes_are_frozen_slotted_and_registered``.
The baselines run in the simulator only, which charges their modelled
``wire_size()``; they have no codec.

Type ids are stable protocol constants; never renumber an existing id,
and never reuse a retired one (4 and 9 here, and 16–50, the baselines'
codecs before they went).  An item is always its schema position
(:meth:`Encoder.item <repro.wire.codec.Encoder.item>`):

== ======================= ==============================================
id class                   body
== ======================= ==============================================
1  ``ItemPayload``         item · value · vv
2  ``PropagationRequest``  recipient · cached_vv (the DBVV)
3  ``YouAreCurrent``       source
4  *retired*               the v1 ``PropagationReply`` (names twice,
                           absolute seqnos); a frame or WAL record that
                           carries it is an *unknown type id*
5  ``OutOfBoundRequest``   requester · item
6  ``OutOfBoundReply``     source · item · value · vv
7  ``OpChainEntry``        origin · m · op
8  ``DeltaPayload``        item · vv · count · entries
9  *retired*               the v2 ``PropagationReply`` (items by name,
                           item IVVs as link-cached deltas); refused like 4
10 ``PropagationReply``    see below
== ======================= ==============================================

**The reply body (v3).**  The paper's tail vector D names exactly the
items of the shipped set S (Fig. 2), so an item crosses the wire once,
in S, as its schema position; D refers to it by its index in S, and a
tail's seqnos — which climb — travel as differences::

    reply   := source count payload* count tail*
    payload := uvarint(0) item value vv                    # whole value
             | uvarint(1) item vv count op-entry*          # op chain
    tail    := count record*
    record  := uvarint(index into S) svarint(seqno - previous seqno of
               this tail, the first from 0)

The payload tags are local to the reply body.  Every item IVV is a
self-contained ``vv`` — full, or sparse against zero, whichever is
shorter — so the reply reads and advances no cache: the bytes that arrived are
a self-contained record, and a durable recipient journals them as they
are (:mod:`repro.durable.records`).  A cached delta tag inside a reply
is a :class:`WireFormatError`.  The decoder accepts the two payload
tags and nothing else (no registered message nests, so no frame can
make a codec recurse), checks ``index < len(S)``, and hands each record
its payload's own ``str``.  The encoder refuses
(:class:`WireFormatError`) a reply whose tail names an item it does not
ship — ``send_propagation`` cannot build one.  The in-memory
:class:`PropagationReply` and its ``wire_size()`` model are what they
were; whether seqnos *climb* is the recipient's validator's call
(:mod:`repro.core.validate`), which is why the difference is signed.

Every other message here is written and read field by field through the
:class:`~repro.wire.codec.Encoder`/:class:`~repro.wire.codec.Decoder`
primitives.  The reply — most of a loaded session's bytes — is written
and read in one loop per section (the payloads, then the tails) over the
encoder's buffer or the decoder's data and position, with the one- and
two-byte varints and a full IVV of fewer than 128 one-byte components
inline; the primitives serve its rare forms: an op-chain payload, a
sparse or wide IVV, a component past 127 and a varint of three bytes or
more.  The bytes and the refusals are the field-by-field codec's
(``tests/wire/golden``, ``tests/wire/test_reply_oracle.py``): every loop
count is a :meth:`Decoder.count <repro.wire.codec.Decoder.count>`, a
sparse IVV draws on the frame's zero budget, and a read past the end is
a :class:`WireFormatError`.

Field-domain notes the encoders rely on:

* node ids, sequence numbers, counts, and offsets are non-negative →
  unsigned varints;
* ``CounterAdd.delta`` may be negative → zigzag varint;
* :class:`~repro.substrate.operations.UpdateOperation` subclasses are
  not wire messages themselves (no ``wire_size``); they travel inside
  :class:`~repro.core.delta.OpChainEntry` under the private op-tag
  table below.

Every vector here is self-contained (:meth:`Encoder.vv
<repro.wire.codec.Encoder.vv>`) but the request's DBVV, the one vector
read against the connection's cache (:meth:`Encoder.cached_vv
<repro.wire.codec.Encoder.cached_vv>`).
"""

from __future__ import annotations

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
    UpdateOperation,
)
from repro.wire.codec import _FULL_VV, _NOT_ONE_BYTE, Decoder, Encoder, _write_full
from repro.wire.registry import register
from repro.wire.varint import read_uvarint, write_svarint, write_uvarint

__all__ = ["OP_TAGS", "decode_wire_op", "encode_wire_op"]

# -- update operations (nested inside OpChainEntry, not framed) --------------

#: Op-tag table for UpdateOperation subclasses; stable like type ids.
OP_TAGS: dict[type, int] = {
    Put: 0,
    Append: 1,
    BytePatch: 2,
    Truncate: 3,
    CounterAdd: 4,
}


def _encode_op(enc: Encoder, op: UpdateOperation) -> None:
    try:
        tag = OP_TAGS[type(op)]
    except KeyError:
        raise WireFormatError(
            f"no op tag for operation class {type(op).__qualname__}"
        ) from None
    enc.uvarint(tag)
    if isinstance(op, Put):
        enc.bytes_(op.value)
    elif isinstance(op, Append):
        enc.bytes_(op.data)
    elif isinstance(op, BytePatch):
        enc.uvarint(op.offset)
        enc.bytes_(op.data)
    elif isinstance(op, Truncate):
        enc.uvarint(op.length)
    else:
        enc.svarint(op.delta)


def _decode_op(dec: Decoder) -> UpdateOperation:
    tag = dec.uvarint()
    if tag == 0:
        return Put(dec.bytes_())
    if tag == 1:
        return Append(dec.bytes_())
    if tag == 2:
        return BytePatch(dec.uvarint(), dec.bytes_())
    if tag == 3:
        return Truncate(dec.uvarint())
    if tag == 4:
        return CounterAdd(dec.svarint())
    raise WireFormatError(f"unknown update-operation tag {tag}")


# Public aliases: the durable write-ahead log (repro.durable) journals
# user updates as wire-encoded records and needs exactly this op
# encoding; re-exporting beats a parallel op-tag table drifting apart.
encode_wire_op = _encode_op
decode_wire_op = _decode_op


# -- core protocol (ids 1-3, 5-8, 10) -----------------------------------------

#: The reply body's own payload tags (see the module docstring).
_WHOLE_VALUE = 0
_OP_CHAIN = 1


def _encode_item_payload(enc: Encoder, msg: ItemPayload) -> None:
    enc.item(msg.name)
    enc.bytes_(msg.value)
    enc.vv(msg.ivv)


def _decode_item_payload(dec: Decoder) -> ItemPayload:
    return ItemPayload(dec.item(), dec.bytes_(), dec.vv())


def _encode_propagation_request(enc: Encoder, msg: PropagationRequest) -> None:
    enc.uvarint(msg.recipient)
    enc.cached_vv(msg.dbvv)


def _decode_propagation_request(dec: Decoder) -> PropagationRequest:
    return PropagationRequest(dec.uvarint(), dec.cached_vv())


def _encode_you_are_current(enc: Encoder, msg: YouAreCurrent) -> None:
    enc.uvarint(msg.source)


def _decode_you_are_current(dec: Decoder) -> YouAreCurrent:
    return YouAreCurrent(dec.uvarint())


def _encode_propagation_reply(enc: Encoder, msg: PropagationReply) -> None:
    # One loop per section over the encoder's own buffer: the one- and
    # two-byte varints and a full one-byte item IVV are written inline;
    # an op chain, a sparse or wide IVV, a component past 127 and a long
    # varint go through the Encoder primitives (and _write_full).
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.items))
    buf = enc.buf
    append = buf.append
    position_of = enc._index.get
    index_of: dict[str, int] = {}
    for index, payload in enumerate(msg.items):
        kind = type(payload)
        if kind is DeltaPayload:
            append(_OP_CHAIN)
            enc.item(payload.name)
            enc.vv(payload.ivv)
            _encode_ops(enc, payload.ops)
            index_of[payload.name] = index
            continue
        if kind is not ItemPayload:
            raise WireFormatError(
                f"a reply ships ItemPayload or DeltaPayload, "
                f"not {kind.__qualname__}"
            )
        name = payload.name
        position = position_of(name)
        if position is None:
            raise WireFormatError(f"item {name!r} is not in the schema")
        append(_WHOLE_VALUE)
        if position < 0x80:
            append(position)
        elif position < 0x4000:
            append(position & 0x7F | 0x80)
            append(position >> 7)
        else:
            write_uvarint(buf, position)
        value = payload.value
        length = len(value)
        if length < 0x80:
            append(length)
        elif length < 0x4000:
            append(length & 0x7F | 0x80)
            append(length >> 7)
        else:
            write_uvarint(buf, length)
        buf += value
        counts = payload.ivv.as_tuple()
        n = len(counts)
        # Below 128 components every sparse gap and count is one byte,
        # so vv's choice reduces to: full unless zeros outnumber
        # the nonzero components by two or more.
        if n < 0x80 and 2 * counts.count(0) <= n + 1:
            try:
                components = bytes(counts)
            except ValueError:  # a component past 255: not one byte each
                components = _NOT_ONE_BYTE
            if components.isascii():
                append(_FULL_VV)
                append(n)
                buf += components
            else:
                _write_full(buf, counts)
        else:
            enc.vv(payload.ivv)
        index_of[name] = index
    tails = msg.tails
    enc.uvarint(len(tails))
    index_for = index_of.get
    for tail in tails:
        records = len(tail)
        if records < 0x80:
            append(records)
        else:
            write_uvarint(buf, records)
        previous = 0
        for name, seqno in tail:
            index = index_for(name)
            if index is None:
                raise WireFormatError(
                    f"reply tail names item {name!r} that the reply "
                    "does not ship"
                )
            if index < 0x80:
                append(index)
            elif index < 0x4000:
                append(index & 0x7F | 0x80)
                append(index >> 7)
            else:
                write_uvarint(buf, index)
            step = seqno - previous
            if -0x40 <= step < 0x40:
                append((step << 1) ^ (step >> 63))
            else:
                write_svarint(buf, step)
            previous = seqno


def _decode_propagation_reply(dec: Decoder) -> PropagationReply:
    # The mirror image: one loop per section over local data/pos, and
    # the Decoder primitives for the rare forms (dec.pos is synced
    # around each).  Every loop count is a Decoder.count(); a byte read
    # past the end of the data is a truncated frame.
    source = dec.uvarint()
    data = dec.data
    end = len(data)
    names = dec._names
    from_counts = VersionVector.from_counts
    items: list[ItemPayload | DeltaPayload] = []
    shipped: list[str] = []
    try:
        for _ in range(dec.count()):
            pos = dec.pos
            tag = data[pos]
            if tag < 0x80:
                pos += 1
            else:
                tag, pos = read_uvarint(data, pos)
            if tag == _OP_CHAIN:
                dec.pos = pos
                name = dec.item()
                ivv = dec.vv()
                items.append(DeltaPayload(name, ivv, _decode_ops(dec)))
                shipped.append(name)
                continue
            if tag != _WHOLE_VALUE:
                raise WireFormatError(
                    f"reply item has payload tag {tag}; only a whole value "
                    f"({_WHOLE_VALUE}) or an op chain ({_OP_CHAIN}) is shipped"
                )
            byte = data[pos]
            if byte < 0x80:
                position = byte
                pos += 1
            elif data[pos + 1] < 0x80:
                position = (byte & 0x7F) | (data[pos + 1] << 7)
                pos += 2
            else:
                position, pos = read_uvarint(data, pos)
            if position >= len(names):
                raise WireFormatError(
                    f"item position {position} is past the {len(names)}-item schema"
                )
            byte = data[pos]
            if byte < 0x80:
                length = byte
                pos += 1
            elif data[pos + 1] < 0x80:
                length = (byte & 0x7F) | (data[pos + 1] << 7)
                pos += 2
            else:
                length, pos = read_uvarint(data, pos)
            stop = pos + length
            if stop > end:
                raise WireFormatError(
                    f"truncated frame: {length}-byte field overruns the payload"
                )
            value = data[pos:stop]
            pos = stop
            # A full IVV of fewer than 128 one-byte components, inline.
            n = data[pos + 1] if data[pos] == _FULL_VV else 0x80
            stop = pos + 2 + n
            components = data[pos + 2 : stop]
            if n < 0x80 and stop <= end and components.isascii():
                ivv = from_counts(tuple(components))
                dec.pos = stop
            else:
                dec.pos = pos
                ivv = dec.vv()
            name = names[position]
            items.append(ItemPayload(name, value, ivv))
            shipped.append(name)
        count = len(shipped)
        tails = []
        for _ in range(dec.count()):
            tail = []
            seqno = 0
            records = dec.count()
            pos = dec.pos
            for _ in range(records):
                byte = data[pos]
                if byte < 0x80:
                    index = byte
                    pos += 1
                elif data[pos + 1] < 0x80:
                    index = (byte & 0x7F) | (data[pos + 1] << 7)
                    pos += 2
                else:
                    index, pos = read_uvarint(data, pos)
                if index >= count:
                    raise WireFormatError(
                        f"reply tail record points at item {index} of {count}"
                    )
                byte = data[pos]
                if byte < 0x80:
                    pos += 1
                else:
                    byte, pos = read_uvarint(data, pos)
                seqno += (byte >> 1) ^ -(byte & 1)
                tail.append((shipped[index], seqno))
            dec.pos = pos
            tails.append(tuple(tail))
    except IndexError:
        raise WireFormatError("truncated frame: the reply ends mid-field") from None
    return PropagationReply(source, tuple(tails), tuple(items))


def _encode_oob_request(enc: Encoder, msg: OutOfBoundRequest) -> None:
    enc.uvarint(msg.requester)
    enc.item(msg.item)


def _decode_oob_request(dec: Decoder) -> OutOfBoundRequest:
    return OutOfBoundRequest(dec.uvarint(), dec.item())


def _encode_oob_reply(enc: Encoder, msg: OutOfBoundReply) -> None:
    enc.uvarint(msg.source)
    enc.item(msg.item)
    enc.bytes_(msg.value)
    enc.vv(msg.ivv)


def _decode_oob_reply(dec: Decoder) -> OutOfBoundReply:
    return OutOfBoundReply(dec.uvarint(), dec.item(), dec.bytes_(), dec.vv())


def _encode_op_chain_entry(enc: Encoder, msg: OpChainEntry) -> None:
    enc.uvarint(msg.origin)
    enc.uvarint(msg.m)
    _encode_op(enc, msg.op)


def _decode_op_chain_entry(dec: Decoder) -> OpChainEntry:
    return OpChainEntry(dec.uvarint(), dec.uvarint(), _decode_op(dec))


def _encode_ops(enc: Encoder, ops: tuple[OpChainEntry, ...]) -> None:
    enc.uvarint(len(ops))
    for entry in ops:
        _encode_op_chain_entry(enc, entry)


def _decode_ops(dec: Decoder) -> tuple[OpChainEntry, ...]:
    return tuple(_decode_op_chain_entry(dec) for _ in range(dec.count()))


def _encode_delta_payload(enc: Encoder, msg: DeltaPayload) -> None:
    enc.item(msg.name)
    enc.vv(msg.ivv)
    _encode_ops(enc, msg.ops)


def _decode_delta_payload(dec: Decoder) -> DeltaPayload:
    return DeltaPayload(dec.item(), dec.vv(), _decode_ops(dec))


# -- the type-id table (4 and 9 are retired replies; never reuse them) --------

register(1, ItemPayload, _encode_item_payload, _decode_item_payload)
register(2, PropagationRequest, _encode_propagation_request, _decode_propagation_request)
register(3, YouAreCurrent, _encode_you_are_current, _decode_you_are_current)
register(5, OutOfBoundRequest, _encode_oob_request, _decode_oob_request)
register(6, OutOfBoundReply, _encode_oob_reply, _decode_oob_reply)
register(7, OpChainEntry, _encode_op_chain_entry, _decode_op_chain_entry)
register(8, DeltaPayload, _encode_delta_payload, _decode_delta_payload)
register(10, PropagationReply, _encode_propagation_reply, _decode_propagation_reply)
