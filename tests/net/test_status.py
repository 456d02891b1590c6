"""``status`` streamed from a snapshot of references.

The reply is ``json.dumps`` of the result object byte for byte, but the
node never builds it whole: it takes one ``(name, value, ivv)`` row per
item with no await in between, counts the reply's length from them, and
writes it in chunks with a drain after each.  These tests pin the bytes,
the snapshot's isolation from writes that land mid-stream, the memory
the stream holds, and the answer to a reply past the frame cap.
"""

import asyncio
import hashlib
import json
import socket
import tracemalloc

import pytest

from repro.net import node as node_module
from repro.net.config import NodeConfig
from repro.net.framing import read_blob
from repro.net.node import NetNode
from repro.substrate.operations import Put
from repro.wire.varint import write_uvarint
from tests.net.test_node import _connect, _framed, start_nodes, stop_nodes

#: A name ``json.dumps`` escapes three ways: a quote, a backslash, and a
#: character outside ASCII.
ESCAPED = 'q"\\é'


def _expected(net):
    """The reply, built whole the way a ``status`` reply is specified."""
    node = net.node
    result = {
        "ok": True,
        "node": net.node_id,
        "store": {entry.name: entry.value.hex() for entry in node.store},
        "ivvs": {entry.name: list(entry.ivv.as_tuple()) for entry in node.store},
        "dbvv": list(node.dbvv.as_tuple()),
        "census": dict(net.census),
        "frames_sent": net.frames_sent,
        "bytes_sent": net.bytes_sent,
        "reconnects": net.reconnects,
        "sync_retries": net.sync_retries,
        "sessions_served": net.sessions_served,
        "conflicts": node.conflicts.count,
    }
    if net.journal is not None:
        journal = net.journal
        result["durable"] = {
            "checkpoints": journal.checkpoints,
            "records_replayed": journal.records_replayed,
            "records_skipped": journal.records_skipped,
            "wal_records": journal.wal.records_appended,
            "wal_bytes": journal.wal.bytes_appended,
            "fsyncs": journal.wal.fsyncs,
            "wal_bytes_since_checkpoint": journal.wal_bytes_since_checkpoint,
            "checkpoint_bytes": journal.checkpoint_bytes,
        }
    return json.dumps(result).encode("utf-8")


def _serve(net, *requests):
    """The raw reply blobs of ``requests``, delivered in one segment to
    ``net``'s stock ``_serve_client`` (no socket), and each write's size."""

    class Sink:
        def __init__(self):
            self.written = b""
            self.writes = []

        def write(self, data):
            self.writes.append(len(data))
            self.written += data

        async def drain(self):
            pass

        def close(self):
            pass

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(_framed(*requests))
        reader.feed_eof()
        sink = Sink()
        await net._serve_client(reader, sink)
        replies = asyncio.StreamReader()
        replies.feed_data(sink.written)
        replies.feed_eof()
        return [await read_blob(replies) for _ in requests], sink.writes

    return asyncio.run(run())


class TestTheBytes:
    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "journaled"])
    @pytest.mark.parametrize("filled", [False, True], ids=["empty", "filled"])
    def test_a_reply_is_what_json_dumps_spells(self, durable, filled, tmp_path):
        items = ("a", ESCAPED, "zero", "big")
        net = NetNode(
            NodeConfig(
                node_id=0, items=items, data_dir=str(tmp_path) if durable else None
            )
        )
        try:
            if filled:
                net.node.update("a", Put(b"\x00\xff" * 3))
                net.node.update(ESCAPED, Put(b"escaped"))
                net.node.update("zero", Put(b"x"))
                net.node.update("zero", Put(b""))  # a zero-length value
                net.node.update("big", Put(bytes(range(256)) * 300))  # > 2 chunks
            expected = _expected(net)
            (reply,), writes = _serve(net, {"op": "status"})
        finally:
            if net.journal is not None:
                net.journal.close()
        assert reply == expected
        assert max(writes) <= node_module._STATUS_CHUNK
        if filled:
            assert len(writes) > 3  # the prefix and more than two chunks

    def test_a_status_between_pipelined_requests_is_answered_in_order(self):
        net = NetNode(NodeConfig(node_id=0, items=("a", "b")))
        net.node.update("a", Put(b"v"))
        expected = _expected(net)
        (pong, status, got), _ = _serve(
            net, {"op": "ping"}, {"op": "status"}, {"op": "get", "item": "a"}
        )
        assert json.loads(pong) == {"ok": True, "node": 0}
        assert status == expected
        assert json.loads(got) == {"ok": True, "value": b"v".hex()}


class TestTheSnapshot:
    def test_a_put_landing_mid_stream_is_absent_from_the_reply(self, monkeypatch):
        """The stream stops after its first chunk until a put on another
        connection is acknowledged; the reply still says what the node
        held when ``status`` was read, and its DBVV is its IVV column
        sums."""
        items = tuple(f"k{index:02d}" for index in range(16))
        midway, landed = asyncio.Event(), asyncio.Event()
        inner = node_module.write_blob_stream

        class PausingWriter:
            def __init__(self, writer):
                self._writer = writer

            def write(self, data):
                self._writer.write(data)

            async def drain(self):
                if not midway.is_set():
                    midway.set()
                    await landed.wait()
                await self._writer.drain()

        async def paused_stream(writer, length, chunks):
            await inner(PausingWriter(writer), length, chunks)

        monkeypatch.setattr(node_module, "write_blob_stream", paused_stream)

        async def run():
            nodes = await start_nodes(2, items=items)
            try:
                for name in items:
                    nodes[0].node.update(name, Put(name.encode() * 8192))
                before = _expected(nodes[0])
                reader, writer = await _connect(nodes[0])
                writer.write(_framed({"op": "status"}))
                await midway.wait()
                other_reader, other_writer = await _connect(nodes[0])
                last = items[-1]
                other_writer.write(
                    _framed({"op": "put", "item": last, "value": b"new".hex()})
                )
                put = json.loads(await read_blob(other_reader))
                landed.set()
                reply = await read_blob(reader)
                writer.close()
                other_writer.close()
                return before, put, reply, nodes[0].node.read(last)
            finally:
                await stop_nodes(nodes)

        before, put, reply, now = asyncio.run(run())
        assert put == {"ok": True} and now == b"new"
        assert reply == before
        status = json.loads(reply)
        assert status["store"]["k15"] == (b"k15" * 8192).hex()
        column_sums = [sum(column) for column in zip(*status["ivvs"].values())]
        assert status["dbvv"] == column_sums == [16, 0]

    def test_serving_a_4_mib_store_holds_under_1_mib(self):
        """The stream holds a chunk or two and the pointer snapshot, not
        the store's hex text, its UTF-8 and the framed copy (which, for
        this store, is more than 12 MiB at once).  The client is a thread
        that reads into one buffer, allocated before tracing starts, and
        hashes what it reads."""
        items = tuple(f"k{index:02d}" for index in range(64))
        into = bytearray(1 << 16)

        def read_reply(port, size):
            seen = hashlib.sha256()
            view = memoryview(into)
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.sendall(_framed({"op": "status"}))
                got = 0
                while got < size:
                    n = sock.recv_into(into)
                    assert n
                    seen.update(view[:n])
                    got += n
            return seen.hexdigest()

        async def run():
            nodes = await start_nodes(2, items=items)
            try:
                for index, name in enumerate(items):
                    nodes[0].node.update(name, Put(bytes([index]) * (64 << 10)))
                expected = bytearray()
                reply = _expected(nodes[0])
                write_uvarint(expected, len(reply))
                expected += reply
                want, size = hashlib.sha256(expected).hexdigest(), len(expected)
                del expected, reply
                tracemalloc.start()
                try:
                    seen = await asyncio.to_thread(read_reply, nodes[0].client_port, size)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                return peak, seen, want
            finally:
                await stop_nodes(nodes)

        peak, seen, want = asyncio.run(run())
        assert seen == want
        assert peak < 1 << 20, f"peak {peak} B while serving status"


class TestTheCap:
    def test_a_reply_past_the_frame_cap_is_an_error_and_the_connection_stays(
        self, monkeypatch
    ):
        monkeypatch.setattr(node_module, "MAX_FRAME_BYTES", 300)

        async def run():
            nodes = await start_nodes(2)
            try:
                nodes[0].node.update("a", Put(b"v" * 200))
                reader, writer = await _connect(nodes[0])
                writer.write(
                    _framed({"op": "status"}, {"op": "get", "item": "a"}, {"op": "ping"})
                )
                replies = [json.loads(await read_blob(reader)) for _ in range(3)]
                writer.close()
                return replies, nodes[0]._status().length
            finally:
                await stop_nodes(nodes)

        (refused, got, pong), length = asyncio.run(run())
        assert refused["ok"] is False
        assert f"{length} bytes" in refused["error"]
        assert "300-byte" in refused["error"]
        assert bytes.fromhex(got["value"]) == b"v" * 200
        assert pong == {"ok": True, "node": 0}
