"""The core protocol's codecs and the stable type-id table (ids 1–3, 5–8, 10).

Importing this module registers an encode/decode pair for every
``wire_size`` class of the DBVV protocol itself — the session and
out-of-bound messages and the operation-shipping payloads: the whole
registry of a :mod:`repro.net` replica.  The baselines' codecs live in
:mod:`repro.wire.baseline_codecs`.  Lint rule R8 audits the union: a
new message class without a registration (or a registration whose
class lost its ``wire_size``) fails ``python -m repro.lint``.

Type ids are stable protocol constants grouped by module (core protocol
``1–10`` here; oracle ``16+``, agrawal-malpani ``24+``, per-item-vv
``32+``, lotus ``40+``, wuu-bernstein ``48+`` in the baseline file);
never renumber an existing id, and never reuse a retired one.  An item
is always its schema position (:meth:`Encoder.item
<repro.wire.codec.Encoder.item>`), here and in the baselines:

== ======================= ==============================================
id class                   body
== ======================= ==============================================
1  ``ItemPayload``         item · value · vv(``ivv:<name>``)
2  ``PropagationRequest``  recipient · vv(``dbvv``)
3  ``YouAreCurrent``       source
4  *retired*               the v1 ``PropagationReply`` (names twice,
                           absolute seqnos); a frame or WAL record that
                           carries it is an *unknown type id*
5  ``OutOfBoundRequest``   requester · item
6  ``OutOfBoundReply``     source · item · value · vv(``oob:<name>``)
7  ``OpChainEntry``        origin · m · op
8  ``DeltaPayload``        item · vv(``ivv:<name>``) · count · entries
9  *retired*               the v2 ``PropagationReply`` (items by name,
                           item IVVs as link-cached deltas); refused like 4
10 ``PropagationReply``    see below
== ======================= ==============================================

**The reply body (v3).**  The paper's tail vector D names exactly the
items of the shipped set S (Fig. 2), so an item crosses the wire once,
in S, as its schema position; D refers to it by its index in S, and a
tail's seqnos — which climb — travel as differences::

    reply   := source count payload* count tail*
    payload := uvarint(0) item value bare_vv               # whole value
             | uvarint(1) item bare_vv count op-entry*     # op chain
    tail    := count record*
    record  := uvarint(index into S) svarint(seqno - previous seqno of
               this tail, the first from 0)

The payload tags are local to the reply body.  Every item IVV is a
``bare_vv`` — full, or sparse against zero, whichever is shorter — so
the reply reads and advances no link cache: the bytes that arrived are
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

Field-domain notes the encoders rely on:

* node ids, sequence numbers, counts, and offsets are non-negative →
  unsigned varints;
* ``CounterAdd.delta`` may be negative → zigzag varint;
* :class:`~repro.substrate.operations.UpdateOperation` subclasses are
  not wire messages themselves (no ``wire_size``); they travel inside
  :class:`~repro.core.delta.OpChainEntry` under the private op-tag
  table below.

Version-vector *stream keys* (the delta-cache granularity, see
:mod:`repro.wire.codec`): the database vector is stream ``"dbvv"``; a
standalone item payload's IVV is ``"ivv:<name>"``; out-of-bound replies
use ``"oob:<name>"`` (auxiliary copies may run ahead of the regular
IVV).  A reply's item IVVs have no stream.
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
from repro.errors import WireFormatError
from repro.substrate.operations import (
    Append,
    BytePatch,
    CounterAdd,
    Put,
    Truncate,
    UpdateOperation,
)
from repro.wire.codec import Decoder, Encoder
from repro.wire.registry import register

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
    name = msg.name
    enc.item(name)
    enc.bytes_(msg.value)
    enc.vv("ivv:" + name, msg.ivv)


def _decode_item_payload(dec: Decoder) -> ItemPayload:
    name = dec.item()
    value = dec.bytes_()
    return ItemPayload(name, value, dec.vv("ivv:" + name))


def _encode_propagation_request(enc: Encoder, msg: PropagationRequest) -> None:
    enc.uvarint(msg.recipient)
    enc.vv("dbvv", msg.dbvv)


def _decode_propagation_request(dec: Decoder) -> PropagationRequest:
    return PropagationRequest(dec.uvarint(), dec.vv("dbvv"))


def _encode_you_are_current(enc: Encoder, msg: YouAreCurrent) -> None:
    enc.uvarint(msg.source)


def _decode_you_are_current(dec: Decoder) -> YouAreCurrent:
    return YouAreCurrent(dec.uvarint())


def _encode_propagation_reply(enc: Encoder, msg: PropagationReply) -> None:
    uvarint = enc.uvarint
    uvarint(msg.source)
    uvarint(len(msg.items))
    index_of: dict[str, int] = {}
    item, bytes_, bare_vv = enc.item, enc.bytes_, enc.bare_vv
    for index, payload in enumerate(msg.items):
        if type(payload) is ItemPayload:
            uvarint(_WHOLE_VALUE)
            item(payload.name)
            bytes_(payload.value)
            bare_vv(payload.ivv)
        elif type(payload) is DeltaPayload:
            uvarint(_OP_CHAIN)
            item(payload.name)
            bare_vv(payload.ivv)
            _encode_ops(enc, payload.ops)
        else:
            raise WireFormatError(
                f"a reply ships ItemPayload or DeltaPayload, "
                f"not {type(payload).__qualname__}"
            )
        index_of[payload.name] = index
    uvarint(len(msg.tails))
    svarint = enc.svarint
    index_for = index_of.get
    for tail in msg.tails:
        uvarint(len(tail))
        previous = 0
        for name, seqno in tail:
            index = index_for(name)
            if index is None:
                raise WireFormatError(
                    f"reply tail names item {name!r} that the reply "
                    "does not ship"
                )
            uvarint(index)
            svarint(seqno - previous)
            previous = seqno


def _decode_propagation_reply(dec: Decoder) -> PropagationReply:
    uvarint = dec.uvarint
    source = uvarint()
    items: list[ItemPayload | DeltaPayload] = []
    item, bytes_, bare_vv = dec.item, dec.bytes_, dec.bare_vv
    for _ in range(dec.count()):
        tag = uvarint()
        if tag == _WHOLE_VALUE:
            name = item()
            value = bytes_()
            items.append(ItemPayload(name, value, bare_vv()))
        elif tag == _OP_CHAIN:
            name = item()
            ivv = bare_vv()
            items.append(DeltaPayload(name, ivv, _decode_ops(dec)))
        else:
            raise WireFormatError(
                f"reply item has payload tag {tag}; only a whole value "
                f"({_WHOLE_VALUE}) or an op chain ({_OP_CHAIN}) is shipped"
            )
    names = [payload.name for payload in items]
    shipped = len(names)
    tails = []
    svarint = dec.svarint
    for _ in range(dec.count()):
        tail = []
        seqno = 0
        for _ in range(dec.count()):
            index = uvarint()
            if index >= shipped:
                raise WireFormatError(
                    f"reply tail record points at item {index} of {shipped}"
                )
            seqno += svarint()
            tail.append((names[index], seqno))
        tails.append(tuple(tail))
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
    enc.vv(f"oob:{msg.item}", msg.ivv)


def _decode_oob_reply(dec: Decoder) -> OutOfBoundReply:
    source = dec.uvarint()
    item = dec.item()
    value = dec.bytes_()
    return OutOfBoundReply(source, item, value, dec.vv(f"oob:{item}"))


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
    enc.vv("ivv:" + msg.name, msg.ivv)
    _encode_ops(enc, msg.ops)


def _decode_delta_payload(dec: Decoder) -> DeltaPayload:
    name = dec.item()
    ivv = dec.vv("ivv:" + name)
    return DeltaPayload(name, ivv, _decode_ops(dec))


# -- the type-id table (4 and 9 are retired replies; never reuse them) --------

register(1, ItemPayload, _encode_item_payload, _decode_item_payload)
register(2, PropagationRequest, _encode_propagation_request, _decode_propagation_request)
register(3, YouAreCurrent, _encode_you_are_current, _decode_you_are_current)
register(5, OutOfBoundRequest, _encode_oob_request, _decode_oob_request)
register(6, OutOfBoundReply, _encode_oob_reply, _decode_oob_reply)
register(7, OpChainEntry, _encode_op_chain_entry, _decode_op_chain_entry)
register(8, DeltaPayload, _encode_delta_payload, _decode_delta_payload)
register(10, PropagationReply, _encode_propagation_reply, _decode_propagation_reply)
