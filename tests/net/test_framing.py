"""Unit tests for the async TCP framing layer.

Each test runs a real loopback socket pair inside ``asyncio.run`` —
the framing functions take StreamReader/StreamWriter, and a genuine
transport is the only honest way to exercise EOF and mid-frame tears.
"""

import asyncio
import time

import pytest

from repro.core.messages import PropagationRequest
from repro.core.version_vector import VersionVector
from repro.errors import WireFormatError
from repro.net import framing
from repro.net.framing import (
    MAX_FRAME_BYTES,
    BufferedReader,
    ConnectionClosed,
    read_blob,
    read_frame,
    receive_preamble,
    send_preamble,
    write_blob,
    write_frame,
)
from repro.wire import WireCodec
from repro.wire.varint import write_uvarint


class _Pipe:
    """A connected loopback socket pair with stream wrappers."""

    async def __aenter__(self):
        self._ready: asyncio.Queue = asyncio.Queue()

        async def on_connect(reader, writer):
            await self._ready.put((reader, writer))

        self._server = await asyncio.start_server(
            on_connect, "127.0.0.1", 0
        )
        port = self._server.sockets[0].getsockname()[1]
        self.client_reader, self.client_writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        self.server_reader, self.server_writer = await self._ready.get()
        return self

    async def __aexit__(self, *exc_info):
        self.client_writer.close()
        self.server_writer.close()
        self._server.close()
        await self._server.wait_closed()


class TestBlobs:
    @pytest.mark.parametrize(
        "payload", [b"", b"x", b"hello", b"\x00" * 200, b"\xff" * 5000]
    )
    def test_round_trip(self, payload):
        async def run():
            async with _Pipe() as pipe:
                await write_blob(pipe.client_writer, payload)
                return await read_blob(pipe.server_reader)

        assert asyncio.run(run()) == payload

    def test_many_blobs_keep_boundaries(self):
        payloads = [b"a", b"bb" * 100, b"", b"ccc"]

        async def run():
            async with _Pipe() as pipe:
                for payload in payloads:
                    await write_blob(pipe.client_writer, payload)
                return [
                    await read_blob(pipe.server_reader) for _ in payloads
                ]

        assert asyncio.run(run()) == payloads

    def test_eof_between_blobs_is_connection_closed(self):
        async def run():
            async with _Pipe() as pipe:
                pipe.client_writer.close()
                await read_blob(pipe.server_reader)

        with pytest.raises(ConnectionClosed):
            asyncio.run(run())

    def test_tear_mid_blob_is_connection_closed(self):
        async def run():
            async with _Pipe() as pipe:
                # Length prefix promises 10 bytes; only 3 arrive.
                pipe.client_writer.write(bytes([10]) + b"abc")
                await pipe.client_writer.drain()
                pipe.client_writer.close()
                await read_blob(pipe.server_reader)

        with pytest.raises(ConnectionClosed):
            asyncio.run(run())

    def test_oversize_length_rejected_without_allocating(self):
        async def run():
            async with _Pipe() as pipe:
                buf = bytearray()
                value = MAX_FRAME_BYTES + 1
                while True:
                    byte = value & 0x7F
                    value >>= 7
                    if value:
                        buf.append(byte | 0x80)
                    else:
                        buf.append(byte)
                        break
                pipe.client_writer.write(bytes(buf))
                await pipe.client_writer.drain()
                await read_blob(pipe.server_reader)

        with pytest.raises(WireFormatError):
            asyncio.run(run())

    def test_unterminated_varint_rejected(self):
        async def run():
            async with _Pipe() as pipe:
                pipe.client_writer.write(b"\x80" * 10)
                await pipe.client_writer.drain()
                await read_blob(pipe.server_reader)

        with pytest.raises(WireFormatError):
            asyncio.run(run())


class TestFrames:
    def test_codec_frame_round_trips_the_socket(self):
        """A frame off the socket is byte-identical to what the codec
        produced — prefix included — so decode() works unchanged."""
        codec_out = WireCodec(())
        codec_in = WireCodec(())
        message = PropagationRequest(1, VersionVector.from_counts((3, 0, 7)))
        frame = codec_out.encode(message)

        async def run():
            async with _Pipe() as pipe:
                await write_frame(pipe.client_writer, frame)
                return await read_frame(pipe.server_reader)

        received = asyncio.run(run())
        assert received == frame
        assert codec_in.decode(received) == message

    def test_delta_frames_survive_the_stream(self):
        """Consecutive frames on one connection decode through the
        connection-scoped cached DBVV in order."""
        sender = WireCodec(())
        receiver = WireCodec(())
        first = PropagationRequest(
            1, VersionVector.from_counts((1, 0, 0, 0, 0, 0, 0, 0))
        )
        second = PropagationRequest(
            1, VersionVector.from_counts((2, 0, 0, 0, 0, 0, 0, 0))
        )

        async def run():
            async with _Pipe() as pipe:
                for message in (first, second):
                    await write_frame(
                        pipe.client_writer, sender.encode(message)
                    )
                return [
                    await read_frame(pipe.server_reader) for _ in range(2)
                ]

        frames = asyncio.run(run())
        assert receiver.decode(frames[0]) == first
        assert receiver.decode(frames[1]) == second
        # The second frame actually used the delta path: it is smaller
        # than a full two-component vector frame could be.
        assert len(frames[1]) < len(frames[0])


DIGEST = bytes(range(8))


class TestPreamble:
    def test_round_trip_returns_node_id(self):
        async def run():
            async with _Pipe() as pipe:
                await send_preamble(pipe.client_writer, 3, DIGEST)
                return await receive_preamble(pipe.server_reader)

        assert asyncio.run(run()) == (3, DIGEST)

    def test_a_cut_digest_is_connection_closed(self):
        preamble = bytearray()
        for field in (framing.MAGIC, framing.PROTOCOL_VERSION, 3):
            write_uvarint(preamble, field)

        async def run():
            async with _Pipe() as pipe:
                pipe.client_writer.write(bytes(preamble) + DIGEST[:4])
                pipe.client_writer.close()
                await receive_preamble(pipe.server_reader)

        with pytest.raises(ConnectionClosed, match="during handshake"):
            asyncio.run(run())

    def test_bad_magic_rejected(self):
        async def run():
            async with _Pipe() as pipe:
                pipe.client_writer.write(b"\x00\x01\x02")
                await pipe.client_writer.drain()
                await receive_preamble(pipe.server_reader)

        with pytest.raises(WireFormatError):
            asyncio.run(run())

    def test_version_mismatch_rejected(self, monkeypatch):
        async def run():
            async with _Pipe() as pipe:
                monkeypatch.setattr(framing, "PROTOCOL_VERSION", 99)
                await send_preamble(pipe.client_writer, 0, DIGEST)
                monkeypatch.undo()
                await receive_preamble(pipe.server_reader)

        with pytest.raises(WireFormatError):
            asyncio.run(run())


def _prefix(length: int) -> bytes:
    buf = bytearray()
    write_uvarint(buf, length)
    return bytes(buf)


def _blob(payload: bytes) -> bytes:
    return _prefix(len(payload)) + payload


def _no_wait(coroutine):
    """Run a coroutine that must finish without ever suspending."""
    try:
        coroutine.send(None)
    except StopIteration as stop:
        return stop.value
    coroutine.close()
    raise AssertionError("the coroutine waited")


class _Pieces:
    """The ``read`` half of a stream that delivers fixed-size pieces;
    ``reads`` counts the times it was asked for more."""

    def __init__(self, data: bytes, piece: int) -> None:
        self._pieces = [data[k : k + piece] for k in range(0, len(data), piece)]
        self._pieces.reverse()
        self.reads = 0

    @classmethod
    def cut_at(cls, data: bytes, split: int) -> "_Pieces":
        """Two pieces (one may be empty, which reads as an early EOF
        would — so it is left out), then EOF."""
        pieces = cls(b"", 1)
        pieces._pieces = [piece for piece in (data[split:], data[:split]) if piece]
        return pieces

    async def read(self, n: int) -> bytes:
        self.reads += 1
        piece = self._pieces.pop() if self._pieces else b""
        assert len(piece) <= n
        return piece


def _outcome(coroutine):
    """What awaiting it gives, an error as ``(type, message)``."""
    try:
        return _no_wait(coroutine)
    except (ConnectionClosed, WireFormatError) as exc:
        return type(exc), str(exc)


class TestBufferedReader:
    """The reader every node connection reads through, driven by a bare
    ``StreamReader`` fed by hand (no socket: the split points are the
    test)."""

    FIRST = b"x" * 200  # two-byte length prefix
    SECOND = b"y" * 130

    def test_has_blob_across_every_split_point(self):
        stream = _blob(self.FIRST) + _blob(self.SECOND)
        first_end = len(_blob(self.FIRST))

        async def run(split):
            raw = asyncio.StreamReader()
            buffered = BufferedReader(raw)
            assert not buffered.has_blob()
            raw.feed_data(stream[:split])
            reading = asyncio.ensure_future(read_blob(buffered))
            for _ in range(3):
                await asyncio.sleep(0)
            # Nothing is promised, or delivered, before it is all there.
            assert reading.done() == (split >= first_end)
            if split < first_end:
                raw.feed_data(stream[split:])
            assert await reading == self.FIRST
            # True exactly when the whole second blob came with the fill.
            whole_second = split < first_end or split == len(stream)
            assert buffered.has_blob() == whole_second
            if whole_second:
                assert _no_wait(read_blob(buffered)) == self.SECOND
            else:
                raw.feed_data(stream[split:])
                assert await read_blob(buffered) == self.SECOND
            assert not buffered.has_blob()

        for split in range(len(stream) + 1):
            asyncio.run(run(split))

    #: What may follow the well-formed units of a stream that then ends.
    TAILS = {
        "nothing": b"",
        "eof-mid-prefix": b"\xc8",
        "eof-mid-payload": bytes([10]) + b"abc",
        "unterminated-prefix": b"\x80" * 10 + b"z" * 4,
        "one-past-the-cap": _prefix(MAX_FRAME_BYTES + 1) + b"z" * 4,
    }

    @pytest.mark.parametrize("read", [read_blob, read_frame])
    @pytest.mark.parametrize("tail", TAILS)
    def test_it_yields_what_a_bare_stream_yields_at_every_split_point(
        self, read, tail
    ):
        """Same payloads, same error type and message, wherever the
        stream was cut in two — and ``has_blob`` says, before each read,
        whether it will neither ask for more nor raise."""
        units = [self.FIRST, b"", self.SECOND, b"z"]
        stream = b"".join(map(_blob, units)) + self.TAILS[tail]

        async def through_a_bare_stream():
            raw = asyncio.StreamReader()
            raw.feed_data(stream)
            raw.feed_eof()
            return [_outcome(read(raw)) for _ in range(len(units) + 1)]

        expected = asyncio.run(through_a_bare_stream())
        assert isinstance(expected[-1], tuple) and expected[-1][1]
        if read is read_blob:
            assert expected[:-1] == units
        else:
            assert expected[:-1] == [_blob(unit) for unit in units]

        for split in range(len(stream) + 1):
            source = _Pieces.cut_at(stream, split)
            buffered = BufferedReader(source)
            for wanted in expected:
                asked = source.reads
                promised = buffered.has_blob()
                assert _outcome(read(buffered)) == wanted
                handed_out = source.reads == asked and not isinstance(wanted, tuple)
                assert promised == handed_out, (split, wanted)

    def test_frames_and_preamble_read_through_it(self):
        frame = WireCodec(()).encode(
            PropagationRequest(1, VersionVector.from_counts((3, 0, 7)))
        )

        async def run():
            async with _Pipe() as pipe:
                await send_preamble(pipe.client_writer, 2, DIGEST)
                await write_frame(pipe.client_writer, frame)
                buffered = BufferedReader(pipe.server_reader)
                return (
                    await receive_preamble(buffered),
                    await read_frame(buffered),
                )

        assert asyncio.run(run()) == ((2, DIGEST), frame)

    @pytest.mark.parametrize(
        "arrived", [b"", b"\x80", bytes([10]) + b"abc", b"\xc8"]
    )
    def test_eof_is_connection_closed(self, arrived):
        """Between blobs, mid-prefix and mid-payload, through the
        unchanged framing functions."""

        async def run(read):
            raw = asyncio.StreamReader()
            raw.feed_data(arrived)
            raw.feed_eof()
            await read(BufferedReader(raw))

        for read in (read_blob, read_frame):
            with pytest.raises(ConnectionClosed):
                asyncio.run(run(read))

    @pytest.mark.parametrize(
        "prefix",
        [b"\x80" * 10, b"\xff" * 9 + b"\x7f", b"\x81\x80\x80\x20"],
        ids=["unterminated", "past-64-bit", "past-the-cap"],
    )
    def test_has_blob_is_false_for_what_read_blob_rejects(self, prefix):
        async def run():
            raw = asyncio.StreamReader()
            raw.feed_data(_blob(b"ok") + prefix + b"z" * 64)
            buffered = BufferedReader(raw)
            assert await read_blob(buffered) == b"ok"
            assert not buffered.has_blob()
            await read_blob(buffered)

        with pytest.raises(WireFormatError):
            asyncio.run(run())

    def test_the_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 5)

        async def run(size):
            raw = asyncio.StreamReader()
            raw.feed_data(_blob(b"ok") + _blob(b"z" * size))
            buffered = BufferedReader(raw)
            assert await read_blob(buffered) == b"ok"
            return buffered.has_blob()

        assert asyncio.run(run(5))
        assert not asyncio.run(run(6))

    def test_a_large_blob_in_pieces_is_read_in_linear_time(self):
        """4 MiB in 64 KiB pieces costs about 4× what 1 MiB does — a
        reader that re-copies what it holds on every piece costs 16×."""

        def seconds(size):
            data = _blob(b"\xab" * size)
            best = float("inf")
            for _ in range(5):
                buffered = BufferedReader(_Pieces(data, 1 << 16))
                started = time.perf_counter()
                blob = _no_wait(read_blob(buffered))
                best = min(best, time.perf_counter() - started)
                assert len(blob) == size
            return best

        assert seconds(4 << 20) < 10 * seconds(1 << 20)
