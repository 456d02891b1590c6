"""The comparison protocols' codecs (type ids 16–50).

Imported by :mod:`repro.baselines` — "a baseline class is importable"
implies "its codec is registered" — and never by :mod:`repro.wire`, so
a :mod:`repro.net` replica cannot decode a baseline frame.  The rules
of :mod:`repro.wire.codecs` apply; particular to this file: Lotus
``last_writer`` ids may be ``-1`` ("never written") → zigzag varints,
and the per-item baseline's advertised IVVs use stream ``"pivv:<name>"``.
"""

from __future__ import annotations

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
from repro.errors import WireFormatError
from repro.wire.codec import Decoder, Encoder
from repro.wire.codecs import _decode_item_payload, _encode_item_payload
from repro.wire.registry import register

# -- oracle deferred push (ids 16+) ------------------------------------------


def _encode_update_record(enc: Encoder, msg: UpdateRecord) -> None:
    enc.string(msg.item)
    enc.bytes_(msg.value)
    enc.uvarint(msg.seqno)
    enc.uvarint(msg.origin)


def _decode_update_record(dec: Decoder) -> UpdateRecord:
    return UpdateRecord(dec.string(), dec.bytes_(), dec.uvarint(), dec.uvarint())


def _encode_push_batch(enc: Encoder, msg: _PushBatch) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.records))
    for record in msg.records:
        _encode_update_record(enc, record)


def _decode_push_batch(dec: Decoder) -> _PushBatch:
    source = dec.uvarint()
    records = tuple(_decode_update_record(dec) for _ in range(dec.count()))
    return _PushBatch(source, records)


# -- agrawal-malpani decoupled dissemination (ids 24+) ------------------------


def _encode_am_record(enc: Encoder, msg: AMRecord) -> None:
    enc.string(msg.item)
    enc.bytes_(msg.value)
    enc.uvarint(msg.seqno)
    enc.uvarint(msg.origin)


def _decode_am_record(dec: Decoder) -> AMRecord:
    return AMRecord(dec.string(), dec.bytes_(), dec.uvarint(), dec.uvarint())


def _encode_log_push(enc: Encoder, msg: _LogPush) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.records))
    for record in msg.records:
        _encode_am_record(enc, record)


def _decode_log_push(dec: Decoder) -> _LogPush:
    source = dec.uvarint()
    records = tuple(_decode_am_record(dec) for _ in range(dec.count()))
    return _LogPush(source, records)


def _encode_vector_exchange(enc: Encoder, msg: _VectorExchange) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.received))
    for count in msg.received:
        enc.uvarint(count)


def _decode_vector_exchange(dec: Decoder) -> _VectorExchange:
    source = dec.uvarint()
    received = tuple(dec.uvarint() for _ in range(dec.count()))
    return _VectorExchange(source, received)


def _encode_repair_request(enc: Encoder, msg: _RepairRequest) -> None:
    enc.uvarint(msg.requester)
    enc.uvarint(len(msg.gaps))
    for origin, have_through in msg.gaps:
        enc.uvarint(origin)
        enc.uvarint(have_through)


def _decode_repair_request(dec: Decoder) -> _RepairRequest:
    requester = dec.uvarint()
    gaps = tuple(
        (dec.uvarint(), dec.uvarint()) for _ in range(dec.count())
    )
    return _RepairRequest(requester, gaps)


# -- per-item version-vector anti-entropy (ids 32+) ---------------------------


def _encode_ivv_list_request(enc: Encoder, msg: _IVVListRequest) -> None:
    enc.uvarint(msg.requester)


def _decode_ivv_list_request(dec: Decoder) -> _IVVListRequest:
    return _IVVListRequest(dec.uvarint())


def _encode_ivv_list_reply(enc: Encoder, msg: _IVVListReply) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.ivvs))
    for name, ivv in msg.ivvs:
        enc.string(name)
        enc.vv(f"pivv:{name}", ivv)


def _decode_ivv_list_reply(dec: Decoder) -> _IVVListReply:
    source = dec.uvarint()
    ivvs = []
    for _ in range(dec.count()):
        name = dec.string()
        ivvs.append((name, dec.vv(f"pivv:{name}")))
    return _IVVListReply(source, tuple(ivvs))


def _encode_item_fetch(enc: Encoder, msg: _ItemFetch) -> None:
    enc.uvarint(msg.requester)
    enc.uvarint(len(msg.names))
    for name in msg.names:
        enc.string(name)


def _decode_item_fetch(dec: Decoder) -> _ItemFetch:
    requester = dec.uvarint()
    names = tuple(dec.string() for _ in range(dec.count()))
    return _ItemFetch(requester, names)


def _encode_item_shipment(enc: Encoder, msg: _ItemShipment) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.payloads))
    for payload in msg.payloads:
        _encode_item_payload(enc, payload)


def _decode_item_shipment(dec: Decoder) -> _ItemShipment:
    source = dec.uvarint()
    payloads = tuple(_decode_item_payload(dec) for _ in range(dec.count()))
    return _ItemShipment(source, payloads)


# -- lotus notes replication (ids 40+) ----------------------------------------


def _encode_propagation_probe(enc: Encoder, msg: _PropagationProbe) -> None:
    enc.uvarint(msg.requester)


def _decode_propagation_probe(dec: Decoder) -> _PropagationProbe:
    return _PropagationProbe(dec.uvarint())


def _encode_change_list(enc: Encoder, msg: _ChangeList) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.entries))
    for name, seqno, writer in msg.entries:
        enc.string(name)
        enc.uvarint(seqno)
        enc.svarint(writer)  # -1 means "never written"


def _decode_change_list(dec: Decoder) -> _ChangeList:
    source = dec.uvarint()
    entries = tuple(
        (dec.string(), dec.uvarint(), dec.svarint())
        for _ in range(dec.count())
    )
    return _ChangeList(source, entries)


def _encode_doc_fetch(enc: Encoder, msg: _DocFetch) -> None:
    enc.uvarint(msg.requester)
    enc.uvarint(len(msg.names))
    for name in msg.names:
        enc.string(name)


def _decode_doc_fetch(dec: Decoder) -> _DocFetch:
    requester = dec.uvarint()
    names = tuple(dec.string() for _ in range(dec.count()))
    return _DocFetch(requester, names)


def _encode_doc_shipment(enc: Encoder, msg: _DocShipment) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.docs))
    for name, value, seqno, writer in msg.docs:
        enc.string(name)
        enc.bytes_(value)
        enc.uvarint(seqno)
        enc.svarint(writer)


def _decode_doc_shipment(dec: Decoder) -> _DocShipment:
    source = dec.uvarint()
    docs = tuple(
        (dec.string(), dec.bytes_(), dec.uvarint(), dec.svarint())
        for _ in range(dec.count())
    )
    return _DocShipment(source, docs)


# -- wuu-bernstein time-table gossip (ids 48+) --------------------------------


def _encode_gossip_record(enc: Encoder, msg: GossipRecord) -> None:
    enc.string(msg.item)
    enc.bytes_(msg.value)
    enc.uvarint(msg.seqno)
    enc.uvarint(msg.origin)


def _decode_gossip_record(dec: Decoder) -> GossipRecord:
    return GossipRecord(dec.string(), dec.bytes_(), dec.uvarint(), dec.uvarint())


def _encode_gossip_message(enc: Encoder, msg: _GossipMessage) -> None:
    enc.uvarint(msg.source)
    # The full n×n table, row-major: carrying it wholesale is this
    # baseline's defining metadata cost, so no delta trickery here.
    enc.uvarint(len(msg.time_table))
    for row in msg.time_table:
        if len(row) != len(msg.time_table):
            raise WireFormatError(
                f"time-table is not square: row of {len(row)} in an "
                f"n={len(msg.time_table)} table"
            )
        for cell in row:
            enc.uvarint(cell)
    enc.uvarint(len(msg.records))
    for record in msg.records:
        _encode_gossip_record(enc, record)


def _decode_gossip_message(dec: Decoder) -> _GossipMessage:
    source = dec.uvarint()
    n = dec.count()
    table = tuple(
        tuple(dec.uvarint() for _ in range(n)) for _ in range(n)
    )
    records = tuple(_decode_gossip_record(dec) for _ in range(dec.count()))
    return _GossipMessage(source, table, records)


def _encode_gossip_request(enc: Encoder, msg: _GossipRequest) -> None:
    enc.uvarint(msg.requester)


def _decode_gossip_request(dec: Decoder) -> _GossipRequest:
    return _GossipRequest(dec.uvarint())


# -- the type-id table --------------------------------------------------------

register(16, UpdateRecord, _encode_update_record, _decode_update_record)
register(17, _PushBatch, _encode_push_batch, _decode_push_batch)

register(24, AMRecord, _encode_am_record, _decode_am_record)
register(25, _LogPush, _encode_log_push, _decode_log_push)
register(26, _VectorExchange, _encode_vector_exchange, _decode_vector_exchange)
register(27, _RepairRequest, _encode_repair_request, _decode_repair_request)

register(32, _IVVListRequest, _encode_ivv_list_request, _decode_ivv_list_request)
register(33, _IVVListReply, _encode_ivv_list_reply, _decode_ivv_list_reply)
register(34, _ItemFetch, _encode_item_fetch, _decode_item_fetch)
register(35, _ItemShipment, _encode_item_shipment, _decode_item_shipment)

register(40, _PropagationProbe, _encode_propagation_probe, _decode_propagation_probe)
register(41, _ChangeList, _encode_change_list, _decode_change_list)
register(42, _DocFetch, _encode_doc_fetch, _decode_doc_fetch)
register(43, _DocShipment, _encode_doc_shipment, _decode_doc_shipment)

register(48, GossipRecord, _encode_gossip_record, _decode_gossip_record)
register(49, _GossipMessage, _encode_gossip_message, _decode_gossip_message)
register(50, _GossipRequest, _encode_gossip_request, _decode_gossip_request)
