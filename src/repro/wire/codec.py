"""Frames, field primitives, the item schema, and the request's cached DBVV.

Frame layout (all numbers LEB128 varints, see :mod:`repro.wire.varint`)::

    frame   := uvarint(len(payload)) payload
    payload := uvarint(type_id) body

The body is written field by field through an :class:`Encoder` by the
per-class codec functions in :mod:`repro.wire.codecs`; a
:class:`Decoder` mirrors every primitive.  A frame must decode to
*exactly* its declared length — leftover or missing body bytes raise
:class:`~repro.errors.WireFormatError`.

**Items travel as schema positions.**  Both ends of a link hold the
same ordered item names (a :class:`Schema`; a ``repro.net`` peer
compares digests at the handshake), so :meth:`Encoder.item` writes an
item as ``uvarint(position)`` and :meth:`Decoder.item` hands back the
schema's own ``str``.  A position past the schema, or a name outside
it, is a :class:`~repro.errors.WireFormatError`.

**Version vectors are self-contained.**  :meth:`Encoder.vv` — an item
payload's, an out-of-bound reply's, a reply's, a WAL record's or a
checkpoint's vector — reads and advances no cache::

    vv       := 0x00 uvarint(n) n*uvarint(component)          # full
              | 0x02 uvarint(n) uvarint(nonzero) nonzero*(gap value)
    gap      := uvarint(index - previous_index - 1)
    value    := uvarint(component)                           # > 0

whichever is shorter (full on a tie); the cached delta tag there is a
:class:`WireFormatError`.  The sparse vectors of one frame (one socket
frame, WAL record or checkpoint section) may imply at most
:data:`MAX_SEQUENCE_ITEMS` zero components in all, since a few bytes
may not make the reader allocate more; the writer spends the same
budget and writes a frame's later vectors full once it is spent, so
every frame it writes is one the reader takes.

**The one cached vector: a request's DBVV.**  A puller probes its
partner with an unchanged DBVV every quiescent round, so
:meth:`Encoder.cached_vv` writes the request's vector against the last
one this codec sent, and :meth:`Decoder.cached_vv` reads it against the
last one it decoded::

    cached   := 0x00 uvarint(n) n*uvarint(component)          # full
              | 0x01 uvarint(changes) changes*(gap delta)     # delta
    delta    := svarint(component - cached_component)

An unchanged vector costs two bytes regardless of ``n``: the paper's
O(1) identical-replica detection as measured bytes.  The full form
(never sparse) is the fallback whenever no cached base exists; the
replica set is fixed (paper section 2), so a base always has the
vector's length, and a vector of another width is refused at encode.
A :class:`WireCodec` is one end of one connection, and its sent and
seen vectors advance independently; they stay in step
only over an ordered, lossless stream, so a :mod:`repro.net`
connection owns one codec and drops it on any tear (a lost frame, a
crash, a reset), and both ends start the next connection from full
vectors.  A delta arriving without a cached base,
or one that takes a component outside ``[0, 2**64)``, raises
:class:`WireFormatError` rather than guessing.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

from repro.core.version_vector import VersionVector
from repro.errors import WireFormatError
from repro.wire.registry import (
    _BY_CLASS as _CODECS_BY_CLASS,
    _BY_ID as _CODECS_BY_ID,
    codec_for_class,
    codec_for_id,
)
from repro.wire.varint import (
    _U64_LIMIT,
    read_svarint,
    read_uvarint,
    write_svarint,
    write_uvarint,
)

__all__ = [
    "Decoder",
    "Encoder",
    "MAX_FRAME_LEN",
    "MAX_SEQUENCE_ITEMS",
    "Schema",
    "WireCodec",
]

_FULL_VV = 0x00
_DELTA_VV = 0x01
_SPARSE_VV = 0x02

#: What a full vector's components are checked as when one is past 255:
#: not ASCII, so not one byte each.
_NOT_ONE_BYTE = b"\x80"

#: Hard cap on a single frame's declared payload length.  A forged
#: length prefix is rejected *before* anything is sized from it — a
#: ten-byte frame claiming 2**60 payload bytes must cost nothing.  The
#: stream framing in :mod:`repro.net.framing` aliases this same cap.
MAX_FRAME_LEN = 1 << 26

#: Hard cap on any decoded element count (vector components, shipped
#: records, items, batch entries).  Every count travels as a uvarint;
#: :meth:`Decoder.count` bounds it before a loop or allocation sees it.
#: Generous: real counts are bounded by items times nodes.
MAX_SEQUENCE_ITEMS = 1 << 20

#: Bytes reserved at the front of a pooled encode buffer for the frame
#: length prefix.  Four LEB128 bytes encode lengths up to 2**28 - 1,
#: comfortably past :data:`MAX_FRAME_LEN` (2**26), so the prefix is
#: written right-justified into the reserve and the frame is one
#: contiguous buffer — no header bytearray, no header+body concat.
_LEN_RESERVE = 4


class Schema:
    """The ordered item names both ends of a link hold.

    ``digest`` is eight bytes of BLAKE2b over the names as a JSON array
    (``json.dumps``, ASCII-escaped), so two schemas with the same names
    in a different order differ.  Built once per replica and shared by
    its codecs.
    """

    __slots__ = ("names", "index", "digest")

    def __init__(self, names: Iterable[str]) -> None:
        self.names: tuple[str, ...] = tuple(names)
        self.index: dict[str, int] = dict(zip(self.names, range(len(self.names))))
        if len(self.index) != len(self.names):
            raise ValueError("a schema names an item twice")
        text = json.dumps(self.names)
        self.digest = hashlib.blake2b(text.encode("ascii"), digest_size=8).digest()


class Encoder:
    """Writes one message body; leased per frame from :class:`WireCodec`.

    Encoders (and their grown ``buf`` bytearrays) are pooled on the
    codec and reused across frames — the steady-state encode path
    allocates nothing but the final immutable ``bytes`` frame.
    """

    __slots__ = ("buf", "_codec", "_index", "_implied")

    def __init__(self, codec: "WireCodec") -> None:
        self.buf = bytearray()
        self._codec = codec
        self._index = codec.schema.index
        # Zero components this frame's sparse vectors may still imply:
        # the budget Decoder enforces, spent here first.
        self._implied = MAX_SEQUENCE_ITEMS

    def uvarint(self, value: int) -> None:
        if 0 <= value < 0x80:
            self.buf.append(value)
        else:
            write_uvarint(self.buf, value)

    def svarint(self, value: int) -> None:
        if -0x40 <= value < 0x40:
            # One zigzag byte: a tail's seqno differences are mostly 1.
            self.buf.append((value << 1) ^ (value >> 63))
        else:
            write_svarint(self.buf, value)

    def bytes_(self, value: bytes) -> None:
        buf = self.buf
        length = len(value)
        if length < 0x80:
            buf.append(length)
        else:
            write_uvarint(buf, length)
        buf += value

    def item(self, name: str) -> None:
        """An item, as its position in the schema."""
        position = self._index.get(name)
        if position is None:
            raise WireFormatError(f"item {name!r} is not in the schema")
        if position < 0x80:
            self.buf.append(position)
        else:
            write_uvarint(self.buf, position)

    def message(self, message: Any) -> None:
        """A nested registered message: its type id plus its body (no
        inner length prefix — the structure is self-delimiting)."""
        codec = _CODECS_BY_CLASS.get(type(message))
        if codec is None:
            codec = codec_for_class(type(message))  # canonical error
        write_uvarint(self.buf, codec.type_id)
        codec.encode(self, message)

    def vv(self, vv: VersionVector) -> None:
        """A self-contained vector: full, or sparse against zero when
        that is shorter (see the module docstring)."""
        counts = vv.as_tuple()
        buf = self.buf
        n = len(counts)
        zeros = counts.count(0)
        if zeros > n - zeros:
            # Sparse leaves out a byte per zero and pays the count plus
            # one gap per nonzero component; the values cost the same.
            present = [k for k in range(n) if counts[k]]
            gaps = [k - previous - 1 for previous, k in zip([-1, *present], present)]
            if (
                _uvarint_len(len(present)) + sum(map(_uvarint_len, gaps)) < zeros
                and zeros <= self._implied
            ):
                self._implied -= zeros
                buf.append(_SPARSE_VV)
                write_uvarint(buf, n)
                write_uvarint(buf, len(present))
                for gap, k in zip(gaps, present):
                    write_uvarint(buf, gap)
                    write_uvarint(buf, counts[k])
                return
        _write_full(buf, counts)

    def cached_vv(self, vv: VersionVector) -> None:
        """A request's DBVV, as a delta against the last one this codec
        sent, or in full form when it has sent none.  A vector of
        another width than that one is a :class:`WireFormatError`: a
        delta cannot say the width changed."""
        counts = vv.as_tuple()
        codec = self._codec
        base = codec._sent
        buf = self.buf
        if base is None:
            _write_full(buf, counts)
        elif base is counts or base == counts:
            # The quiescent steady state: an unchanged vector is two
            # bytes, no per-component scan output at all.
            buf.append(_DELTA_VV)
            buf.append(0)
        else:
            if len(counts) != len(base):
                raise WireFormatError(
                    f"request DBVV of width {len(counts)} after one of width "
                    f"{len(base)} on this connection — the replica set is fixed"
                )
            changed = [k for k in range(len(counts)) if counts[k] != base[k]]
            buf.append(_DELTA_VV)
            write_uvarint(buf, len(changed))
            previous = -1
            for k in changed:
                write_uvarint(buf, k - previous - 1)
                write_svarint(buf, counts[k] - base[k])
                previous = k
        codec._sent = counts


def _write_full(buf: bytearray, counts: tuple[int, ...]) -> None:
    """A full-form vector: ``0x00 uvarint(n) n*uvarint(component)``."""
    buf.append(_FULL_VV)
    write_uvarint(buf, len(counts))
    try:
        components = bytes(counts)
    except ValueError:  # a component past 255
        components = _NOT_ONE_BYTE
    if components.isascii():
        buf += components  # one byte per component
    else:
        for component in counts:
            write_uvarint(buf, component)


def _read_full(data: bytes, pos: int) -> tuple[tuple[int, ...], int]:
    """The components of a full-form vector whose tag ends before
    ``pos``, and the position after them."""
    n, pos = read_uvarint(data, pos)
    if n > MAX_SEQUENCE_ITEMS:
        raise WireFormatError(
            f"declared element count {n} exceeds the {MAX_SEQUENCE_ITEMS} cap"
        )
    end = pos + n
    if end <= len(data):
        raw = data[pos:end]
        if raw.isascii():
            return tuple(raw), end  # one byte per component
    components = []
    for _ in range(n):
        component, pos = read_uvarint(data, pos)
        components.append(component)
    return tuple(components), pos


def _uvarint_len(value: int) -> int:
    return max(1, (value.bit_length() + 6) // 7)


_ZERO_RESERVE = bytes(_LEN_RESERVE)


def _assemble_frame(encoder: Encoder, message: Any) -> bytes:
    """Encode ``message`` into ``encoder``'s buffer as one complete
    length-prefixed frame, in place.

    The buffer opens with a fixed-size reserve for the length prefix;
    the body is written directly after it, the prefix is then written
    right-justified into the reserve, and the frame is sliced out in a
    single copy.  No separate header bytearray, no header+body concat —
    the only allocation on this path is the returned ``bytes``.
    """
    codec = _CODECS_BY_CLASS.get(type(message))
    if codec is None:
        codec = codec_for_class(type(message))  # canonical error
    buf = encoder.buf
    del buf[:]
    buf += _ZERO_RESERVE
    encoder._implied = MAX_SEQUENCE_ITEMS
    type_id = codec.type_id
    if type_id < 0x80:
        buf.append(type_id)
    else:
        write_uvarint(buf, type_id)
    codec.encode(encoder, message)
    body_len = len(buf) - _LEN_RESERVE
    if body_len < 0x80:
        start = _LEN_RESERVE - 1
        buf[start] = body_len
    elif body_len < 0x4000:
        # Two-byte prefix covers every loaded session frame; written
        # straight into the reserve, no scratch buffer.
        start = _LEN_RESERVE - 2
        buf[start] = (body_len & 0x7F) | 0x80
        buf[start + 1] = body_len >> 7
    else:
        prefix = bytearray()  # pragma: fresh-alloc cold >16 KiB-body fallback, never on the session steady state
        write_uvarint(prefix, body_len)
        width = len(prefix)
        if width > _LEN_RESERVE:
            # Bodies past 2**28 - 1 bytes outgrow the reserve; nothing
            # real gets here (decode caps frames at MAX_FRAME_LEN), but
            # fall back to explicit concatenation rather than corrupt.
            prefix += buf[_LEN_RESERVE:]
            return bytes(prefix)
        start = _LEN_RESERVE - width
        buf[start:_LEN_RESERVE] = prefix
    return bytes(memoryview(buf)[start:])


class Decoder:
    """Reads one message body; mirror image of :class:`Encoder`."""

    __slots__ = ("data", "pos", "_codec", "_names", "_implied")

    def __init__(self, codec: "WireCodec", data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos
        self._codec = codec
        self._names = codec.schema.names
        # Zero components sparse vectors may still imply in this frame:
        # a few bytes can claim a vector of 2**20 zeros, so the total
        # is capped per frame rather than per vector.
        self._implied = MAX_SEQUENCE_ITEMS

    def uvarint(self) -> int:
        data = self.data
        pos = self.pos
        if pos < len(data):
            # Single-byte fast path, inlined: most scalars are node ids
            # and small counts, and this method is called per field.
            byte = data[pos]
            if byte < 0x80:
                self.pos = pos + 1
                return byte
        value, self.pos = read_uvarint(data, pos)
        return value

    def svarint(self) -> int:
        data = self.data
        pos = self.pos
        if pos < len(data):
            byte = data[pos]
            if byte < 0x80:
                self.pos = pos + 1
                return (byte >> 1) ^ -(byte & 1)
        value, self.pos = read_svarint(data, pos)
        return value

    def count(self, cap: int = MAX_SEQUENCE_ITEMS) -> int:
        """An element count, bounded before anything is sized from it.

        Every repeated-field loop in :mod:`repro.wire.codecs` reads its
        count through here (lint rule R14 enforces it): a forged count
        past ``cap`` raises instead of driving a ``range``/allocation.
        """
        data = self.data
        pos = self.pos
        if pos < len(data):
            value: int = data[pos]
            if value < 0x80:
                self.pos = pos + 1
                if value > cap:
                    raise WireFormatError(
                        f"declared element count {value} exceeds the {cap} cap"
                    )
                return value
        value, self.pos = read_uvarint(data, pos)
        if value > cap:
            raise WireFormatError(
                f"declared element count {value} exceeds the {cap} cap"
            )
        return value

    def bytes_(self) -> bytes:
        data = self.data
        length, pos = read_uvarint(data, self.pos)
        end = pos + length
        if end > len(data):
            raise WireFormatError(
                f"truncated frame: {length}-byte field overruns the payload"
            )
        self.pos = end
        return data[pos:end]

    def item(self) -> str:
        """An item position, as the schema's own name."""
        data = self.data
        pos = self.pos
        if pos < len(data) and data[pos] < 0x80:
            position: int = data[pos]
            self.pos = pos + 1
        else:
            position, self.pos = read_uvarint(data, pos)
        names = self._names
        if position >= len(names):
            raise WireFormatError(
                f"item position {position} is past the {len(names)}-item schema"
            )
        return names[position]

    def message(self) -> Any:
        """A nested registered message (type id plus body)."""
        data = self.data
        pos = self.pos
        if pos < len(data) and data[pos] < 0x80:
            # Registered type ids are all single-byte today.
            type_id: int = data[pos]
            self.pos = pos + 1
        else:
            type_id, self.pos = read_uvarint(data, pos)
        codec = _CODECS_BY_ID.get(type_id)
        if codec is None:
            codec = codec_for_id(type_id)  # canonical error
        return codec.decode(self)

    def vv(self) -> VersionVector:
        """A self-contained vector, full or sparse against zero; the
        cached delta tag is a :class:`WireFormatError` here."""
        data = self.data
        pos = self.pos
        if pos >= len(data):
            raise WireFormatError("truncated frame: missing version-vector tag")
        tag = data[pos]
        if tag == _FULL_VV:
            counts, pos = _read_full(data, pos + 1)
        elif tag == _SPARSE_VV:
            n, pos = read_uvarint(data, pos + 1)
            if n > MAX_SEQUENCE_ITEMS:
                raise WireFormatError(
                    f"declared element count {n} exceeds the {MAX_SEQUENCE_ITEMS} cap"
                )
            self.pos = pos
            present = self.count(n)
            pos = self.pos
            self._implied -= n - present
            if self._implied < 0:
                raise WireFormatError(
                    "sparse version vectors imply more than "
                    f"{MAX_SEQUENCE_ITEMS} components in one frame"
                )
            mutable = [0] * n
            index = -1
            for _ in range(present):
                gap, pos = read_uvarint(data, pos)
                index += gap + 1
                if index >= n:
                    raise WireFormatError(
                        f"sparse version vector component {index} outside "
                        f"its length {n}"
                    )
                mutable[index], pos = read_uvarint(data, pos)
            counts = tuple(mutable)
        elif tag == _DELTA_VV:
            raise WireFormatError(
                "a link-cached delta version vector inside a self-contained body"
            )
        else:
            raise WireFormatError(f"unknown version-vector tag {tag:#x}")
        self.pos = pos
        return VersionVector.from_counts(counts)

    def cached_vv(self) -> VersionVector:
        """A request's DBVV, full or as a delta against the tuple this
        codec last decoded (which the codec then holds in its place).
        A delta with no base, or one that takes a component outside
        ``[0, 2**64)``, is a :class:`WireFormatError`."""
        # Hand-inlined varint reads on local data/pos: every request
        # carries this vector, and per-component method dispatch was
        # the measured cost, not the arithmetic.
        data = self.data
        pos = self.pos
        if pos >= len(data):
            raise WireFormatError("truncated frame: missing version-vector tag")
        tag = data[pos]
        pos += 1
        codec = self._codec
        if tag == _DELTA_VV:
            base = codec._seen
            if base is None:
                raise WireFormatError(
                    "delta version vector without a cached base — the "
                    "sender and receiver caches are out of sync"
                )
            if pos < len(data) and data[pos] == 0:
                # The quiescent steady state: a zero-change delta is the
                # cached base verbatim — one tag byte, one zero byte, no
                # per-component work at all.
                self.pos = pos + 1
                return VersionVector.from_counts(base)
            n_changes, pos = read_uvarint(data, pos)
            if n_changes > MAX_SEQUENCE_ITEMS:
                raise WireFormatError(
                    f"declared element count {n_changes} exceeds the "
                    f"{MAX_SEQUENCE_ITEMS} cap"
                )
            mutable = list(base)
            length = len(mutable)
            index = -1
            for _ in range(n_changes):
                gap, pos = read_uvarint(data, pos)
                index += gap + 1
                if index >= length:
                    raise WireFormatError(
                        f"delta version vector component index {index} "
                        f"outside the cached base of length {length}"
                    )
                delta, pos = read_svarint(data, pos)
                component = mutable[index] = mutable[index] + delta
                if component < 0:
                    raise WireFormatError(
                        "delta version vector produced a negative component"
                    )
                if component >= _U64_LIMIT:
                    raise WireFormatError(
                        "delta version vector produced a component past "
                        "the 64-bit range"
                    )
            counts = tuple(mutable)
        elif tag == _FULL_VV:
            counts, pos = _read_full(data, pos)
        else:
            raise WireFormatError(f"unknown version-vector tag {tag:#x}")
        self.pos = pos
        # The next delta's base is the component tuple itself:
        # immutable, so the caller may mutate the vector it is handed.
        codec._seen = counts
        return VersionVector.from_counts(counts)


class WireCodec:
    """Encodes and decodes whole frames for one end of one connection.

    One instance belongs to one ``repro.net`` connection, one journal,
    or the checkpoint format.  ``schema`` is the item names both ends
    hold, in order (a :class:`Schema` or the names themselves).  The
    codec keeps the last request DBVV it sent and the last it decoded
    (see the module docstring); nothing else it frames reads a cache.
    """

    __slots__ = ("schema", "_sent", "_seen", "_pool", "_dpool")

    def __init__(self, schema: Schema | Iterable[str]) -> None:
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        # Free lists of reusable Encoders (each keeps its grown buffer)
        # and Decoders, so steady-state encoding allocates only the
        # returned frame and decoding only the decoded message.  Lists,
        # not single slots: Encoder.message() can nest codecs and
        # re-entrant encodes must not share a buffer.
        self._pool: list[Encoder] = []
        self._dpool: list[Decoder] = []
        # The last request DBVV encoded and decoded on this connection:
        # the two directions advance at different times.
        self._sent: tuple[int, ...] | None = None
        self._seen: tuple[int, ...] | None = None

    def encode(self, message: Any) -> bytes:
        """Encode ``message`` into a length-prefixed frame; a request
        advances the sent DBVV."""
        encoder = self._pool.pop() if self._pool else Encoder(self)
        try:
            return _assemble_frame(encoder, message)
        finally:
            self._pool.append(encoder)

    def encode_payload(self, message: Any) -> bytes:
        """``message`` as a frame payload (type id and body, no length
        prefix) — what a journal records for a reply that arrived
        without a frame."""
        frame = self.encode(message)
        return frame[read_uvarint(frame, 0)[1]:]

    def decode(self, frame: bytes) -> Any:
        """Decode one received frame; a request advances the seen DBVV.
        The frame must parse *exactly*: truncation, trailing bytes, and
        unknown type ids all raise :class:`WireFormatError`."""
        length, start = read_uvarint(frame, 0)
        if length > MAX_FRAME_LEN:
            raise WireFormatError(
                f"frame length prefix {length} exceeds the "
                f"{MAX_FRAME_LEN}-byte cap"
            )
        if start + length != len(frame):
            raise WireFormatError(
                f"frame length prefix says {length} payload byte(s), "
                f"got {len(frame) - start}"
            )
        dpool = self._dpool
        if dpool:
            decoder = dpool.pop()
            decoder.data = frame
            decoder.pos = start
            decoder._implied = MAX_SEQUENCE_ITEMS
        else:
            decoder = Decoder(self, frame, start)
        try:
            message = decoder.message()
            if decoder.pos != len(frame):
                raise WireFormatError(
                    f"{len(frame) - decoder.pos} unconsumed byte(s) after "
                    f"the {type(message).__name__} body"
                )
            return message
        finally:
            decoder.data = b""  # do not pin the frame from the pool
            dpool.append(decoder)
