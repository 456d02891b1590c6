"""Async length-prefixed framing over TCP byte streams.

The wire format is exactly :mod:`repro.wire`'s frame layout —
``uvarint(len(payload)) payload`` — so a frame read off a socket feeds
:meth:`~repro.wire.WireCodec.decode` unchanged, and a frame produced by
:meth:`~repro.wire.WireCodec.encode` is written to the socket as-is.
This module only moves the bytes; it never looks inside a payload.

Each peer connection opens with a fixed **preamble** (three raw
uvarints — magic, protocol version, sender's node id — then the eight
bytes of the sender's item-schema digest) so the serving side knows
which replica is talking, and that both hold the same items in the same
order, before any frame arrives.  The
preamble is deliberately *outside* the message registry: it is
connection plumbing, not a protocol message, and it must stay readable
even when the registry evolves.

The JSON client API shares the length-prefix discipline
(:func:`read_blob`/:func:`write_blob`) with a plain payload instead of
a registered frame.

Every connection of a node reads through a :class:`BufferedReader`:
one ``read`` per wake-up, then whole units come out of memory —
:func:`read_blob`/:func:`read_frame` ask it for the next unit
(:meth:`BufferedReader.next_unit`: one prefix parse, one copy, no
``await``) and fill only when that unit is incomplete.  A bare
``StreamReader`` (tests, the benchmark's control port) and the preamble
go byte by byte through :func:`read_stream_uvarint`, which calls only
``read``/``readexactly``; so does a buffered stream that has ended,
which is how both paths name an EOF the same way.
"""

from __future__ import annotations

import asyncio

from repro.errors import NetworkSessionError, WireFormatError
from repro.wire.codec import MAX_FRAME_LEN
from repro.wire.varint import write_uvarint

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "SCHEMA_DIGEST_BYTES",
    "MAX_FRAME_BYTES",
    "ConnectionClosed",
    "BufferedReader",
    "read_stream_uvarint",
    "read_frame",
    "write_frame",
    "read_blob",
    "write_blob",
    "send_preamble",
    "receive_preamble",
]

#: First uvarint of every peer connection; "EP" for epidemic.
MAGIC = 0xE95
#: Bumped on any incompatible change to framing, the preamble, or a
#: frame body a peer connection carries (3: items as schema positions,
#: the schema digest in the preamble, and the self-contained v3
#: ``PropagationReply``, type id 10 — see :mod:`repro.wire.codecs`).
PROTOCOL_VERSION = 3
#: Bytes of the item-schema digest that closes the preamble.
SCHEMA_DIGEST_BYTES = 8
#: Upper bound on a single frame/blob; a malformed length prefix must
#: not make the reader allocate gigabytes.  Aliases the codec-level cap
#: so the stream reader and :meth:`WireCodec.decode` reject the same
#: forgeries at the same budget.
MAX_FRAME_BYTES = MAX_FRAME_LEN

_MAX_VARINT_BYTES = 10
_FILL_BYTES = 1 << 16  # one wake-up's read; ``StreamReader``'s own limit


class ConnectionClosed(NetworkSessionError):
    """The peer closed (or reset) the connection.

    Clean EOF *between* frames and a tear mid-frame both land here: for
    the session driver they mean the same thing — the answer is not
    coming, drop the connection-scoped caches and (maybe) redial.
    """


class BufferedReader:
    """``read``/``readexactly`` of a ``StreamReader``, served from memory,
    and :meth:`next_unit`: a whole buffered blob or frame without a wait.

    One ``reader.read(64 KiB)`` per wake-up fills a ``bytearray`` read
    through a cursor.  Consumed bytes are dropped only at a fill, which
    moves at most one partial unit: a multi-megabyte reply is appended
    to, never re-copied, and endless pipelining cannot grow the buffer.
    """

    __slots__ = ("_reader", "_buf", "_pos")

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._buf = bytearray()
        self._pos = 0

    async def _fill(self) -> bool:
        """Take what has arrived; False at EOF."""
        if self._pos:
            del self._buf[: self._pos]
            self._pos = 0
        chunk = await self._reader.read(_FILL_BYTES)
        self._buf += chunk
        return bool(chunk)

    def _take(self, n: int) -> bytes:
        start = self._pos
        data = bytes(memoryview(self._buf)[start : start + n])
        self._pos = start + len(data)
        return data

    async def read(self, n: int) -> bytes:
        """Up to ``n`` bytes, at least one; ``b""`` at EOF."""
        if self._pos == len(self._buf) and not await self._fill():
            return b""
        return self._take(n)

    async def readexactly(self, n: int) -> bytes:
        """Exactly ``n`` bytes or :class:`asyncio.IncompleteReadError`."""
        while len(self._buf) - self._pos < n:
            if not await self._fill():  # which left the cursor at 0
                raise asyncio.IncompleteReadError(self._take(len(self._buf)), n)
        return self._take(n)

    def _span(self, what: str) -> tuple[int, int] | None:
        """``(payload start, end)`` of the next unit when all of it is
        buffered, ``None`` when more must arrive; raises what
        :func:`read_stream_uvarint` and the cap check raise, as soon as
        the bytes that prove it are here."""
        buf = self._buf
        first = pos = self._pos
        have = len(buf)
        length = shift = 0
        while True:
            if pos == have:
                return None
            byte = buf[pos]
            pos += 1
            length |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if pos - first >= _MAX_VARINT_BYTES:
                raise WireFormatError("unterminated varint in stream")
        if length > MAX_FRAME_BYTES:
            raise WireFormatError(
                f"{what} length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
            )
        end = pos + length
        return (pos, end) if end <= have else None

    def next_unit(self, what: str, prefixed: bool) -> bytes | None:
        """The next whole blob or frame if it is all buffered, else
        ``None``: one prefix parse and one copy, with (a peer frame) or
        without (a client blob) the prefix."""
        span = self._span(what)
        if span is None:
            return None
        start, end = span
        if prefixed:
            start = self._pos
        self._pos = end
        return bytes(memoryview(self._buf)[start:end])

    def has_blob(self) -> bool:
        """Asked between units: will the next :func:`read_blob` neither
        wait nor raise — is a well-formed length prefix within
        :data:`MAX_FRAME_BYTES` buffered with all of its payload?"""
        try:
            return self._span("blob") is not None
        except WireFormatError:
            return False


async def read_stream_uvarint(
    reader: asyncio.StreamReader | BufferedReader,
) -> tuple[int, bytes]:
    """One LEB128 uvarint off the stream; returns ``(value, raw bytes)``.

    The raw bytes come back too because a frame is decoded *including*
    its length prefix (:meth:`WireCodec.decode` re-parses it), so the
    reader must keep the exact prefix it consumed.
    """
    raw = bytearray()
    value = 0
    shift = 0
    while True:
        chunk = await reader.read(1)
        if not chunk:
            raise ConnectionClosed(
                "connection closed while reading a length prefix"
                if raw
                else "connection closed"
            )
        raw += chunk
        byte = chunk[0]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, bytes(raw)
        shift += 7
        if len(raw) >= _MAX_VARINT_BYTES:
            raise WireFormatError("unterminated varint in stream")


async def read_frame(reader: asyncio.StreamReader | BufferedReader) -> bytes:
    """One whole frame — length prefix *included* — off the stream."""
    if isinstance(reader, BufferedReader):
        while (frame := reader.next_unit("frame", True)) is None:
            if not await reader._fill():
                break  # EOF: the byte path below says where the stream ended
        else:
            return frame
    length, prefix = await read_stream_uvarint(reader)
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ConnectionClosed("connection closed mid-frame") from None
    return prefix + payload


async def write_frame(writer: asyncio.StreamWriter, frame: bytes) -> None:
    """Write one codec-produced frame (already length-prefixed) as-is."""
    writer.write(frame)
    try:
        await writer.drain()
    except (ConnectionError, OSError):
        raise ConnectionClosed("connection closed while writing") from None


async def read_blob(reader: asyncio.StreamReader | BufferedReader) -> bytes:
    """One length-prefixed payload *without* the prefix (client API)."""
    if isinstance(reader, BufferedReader):
        while (blob := reader.next_unit("blob", False)) is None:
            if not await reader._fill():
                break  # EOF: the byte path below says where the stream ended
        else:
            return blob
    length, _prefix = await read_stream_uvarint(reader)
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"blob length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ConnectionClosed("connection closed mid-blob") from None


async def write_blob(writer: asyncio.StreamWriter, *payloads: bytes) -> None:
    """Length-prefix each client-API payload; one transport write for all."""
    buf = bytearray()
    for payload in payloads:
        write_uvarint(buf, len(payload))
        buf += payload
    writer.write(buf)  # never touched again: the transport may keep it
    try:
        await writer.drain()
    except (ConnectionError, OSError):
        raise ConnectionClosed("connection closed while writing") from None


async def send_preamble(
    writer: asyncio.StreamWriter, node_id: int, schema_digest: bytes
) -> None:
    """Open a peer connection: magic, protocol version, our node id and
    our item-schema digest."""
    buf = bytearray()
    write_uvarint(buf, MAGIC)
    write_uvarint(buf, PROTOCOL_VERSION)
    write_uvarint(buf, node_id)
    buf += schema_digest
    writer.write(bytes(buf))
    try:
        await writer.drain()
    except (ConnectionError, OSError):
        raise ConnectionClosed("connection closed during handshake") from None


async def receive_preamble(
    reader: asyncio.StreamReader | BufferedReader,
) -> tuple[int, bytes]:
    """Validate the peer's preamble; returns the peer's node id and its
    item-schema digest (comparing digests is the caller's call)."""
    magic, _ = await read_stream_uvarint(reader)
    if magic != MAGIC:
        raise WireFormatError(
            f"bad preamble magic {magic:#x} (expected {MAGIC:#x}) — "
            "not a repro.net peer connection"
        )
    version, _ = await read_stream_uvarint(reader)
    if version != PROTOCOL_VERSION:
        raise WireFormatError(
            f"peer speaks protocol version {version}, "
            f"this node speaks {PROTOCOL_VERSION}"
        )
    node_id, _ = await read_stream_uvarint(reader)
    try:
        digest = await reader.readexactly(SCHEMA_DIGEST_BYTES)
    except asyncio.IncompleteReadError:
        raise ConnectionClosed("connection closed during handshake") from None
    return node_id, digest
