"""In-process tests for the asyncio replica (repro.net.node).

NetNode is just asyncio servers plus the shared session driver, so a
whole cluster can run inside one event loop — no subprocesses needed
to exercise sessions, reconnects, the client operations, and the
anti-entropy scheduler.  The multi-process path is covered by
``test_cluster.py`` and the parity suite.
"""

import asyncio
import dataclasses
import errno
import json
import os
import random
import shutil
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.node import EpidemicNode
from repro.durable import NodeJournal, WalAccept, decode_record
from repro.durable import wal as wal_module
from repro.durable.wal import WriteAheadLog
from repro.errors import NetworkSessionError
from repro.net import node as node_module
from repro.net.config import NodeConfig, PeerAddress
from repro.net import framing
from repro.net.framing import BufferedReader, read_blob, write_blob
from repro.net.harness import _free_ports
from repro.net.node import NetNode
from repro.substrate.operations import Put
from repro.wire.varint import read_uvarint, write_uvarint
from tests.node_state import node_state
from tests.wire_caches import cache_size

ITEMS = ("a", "b")


async def start_nodes(
    n,
    items=ITEMS,
    reconnect_attempts=1,
    anti_entropy_period=0.0,
    seed=0,
    data_dir=None,
):
    ports = _free_ports(n)
    nodes = []
    for node_id in range(n):
        peers = tuple(
            PeerAddress(k, "127.0.0.1", ports[k])
            for k in range(n)
            if k != node_id
        )
        nodes.append(
            NetNode(
                NodeConfig(
                    node_id=node_id,
                    items=items,
                    peer_port=ports[node_id],
                    peers=peers,
                    reconnect_attempts=reconnect_attempts,
                    anti_entropy_period=anti_entropy_period,
                    seed=seed,
                    data_dir=data_dir and str(data_dir / f"node-{node_id}"),
                )
            )
        )
    for node in nodes:
        await node.start()
    return nodes


async def stop_nodes(nodes):
    for node in nodes:
        await node.stop()


class TestSessions:
    def test_pull_adopts_and_second_pull_is_identical(self):
        async def run():
            nodes = await start_nodes(2)
            try:
                nodes[0].node.update("a", Put(b"payload"))
                first = await nodes[1].sync_with(0)
                second = await nodes[1].sync_with(0)
                return nodes[1].node.read("a"), first, second
            finally:
                await stop_nodes(nodes)

        value, first, second = asyncio.run(run())
        assert value == b"payload"
        assert first.adopted == ("a",)
        assert second.identical

    def test_census_counts_sent_frames_per_process(self):
        async def run():
            nodes = await start_nodes(2)
            try:
                nodes[0].node.update("a", Put(b"x"))
                await nodes[1].sync_with(0)
                await nodes[1].sync_with(0)
                return nodes[0].census, nodes[1].census
            finally:
                await stop_nodes(nodes)

        server_census, client_census = asyncio.run(run())
        # The initiator sent two requests; the serving node answered
        # once with data and once with you-are-current.
        assert client_census == {"PropagationRequest": 2}
        assert server_census == {"PropagationReply": 1, "YouAreCurrent": 1}

    def test_three_node_relay_converges(self):
        async def run():
            nodes = await start_nodes(3)
            try:
                nodes[0].node.update("b", Put(b"relay"))
                await nodes[1].sync_with(0)
                await nodes[2].sync_with(1)
                return nodes[2].node.read("b")
            finally:
                await stop_nodes(nodes)

        assert asyncio.run(run()) == b"relay"

    def test_a_link_reads_64_kib_per_recv(self):
        """Not asyncio's 256 KiB, which glibc maps and unmaps per read."""

        async def run():
            nodes = await start_nodes(2)
            try:
                await nodes[0].sync_with(1)
                return nodes[0]._links[1].writer.transport.max_size
            finally:
                await stop_nodes(nodes)

        assert asyncio.run(run()) == node_module._RECV_BYTES == 1 << 16

    def test_sync_with_illegal_peer_raises(self):
        async def run():
            nodes = await start_nodes(2)
            try:
                with pytest.raises(NetworkSessionError):
                    await nodes[1].sync_with(1)
                with pytest.raises(NetworkSessionError):
                    await nodes[1].sync_with(9)
            finally:
                await stop_nodes(nodes)

        asyncio.run(run())


class TestReconnects:
    def test_torn_connection_is_redialed_and_session_retried(self):
        async def run():
            nodes = await start_nodes(2)
            try:
                await nodes[1].sync_with(0)          # establish the link
                # Tear the transport under the node without telling it.
                nodes[1]._links[0].writer.close()
                await asyncio.sleep(0.05)
                nodes[0].node.update("a", Put(b"after-tear"))
                outcome = await nodes[1].sync_with(0)
                return outcome, nodes[1]
            finally:
                await stop_nodes(nodes)

        outcome, puller = asyncio.run(run())
        assert outcome.adopted == ("a",)
        assert puller.reconnects == 1
        assert puller.sync_retries == 1

    def test_fresh_connection_restarts_delta_caches(self):
        """After a reconnect the codec is new — the first frame must be
        a full vector, and it must decode (no stale-delta error)."""

        async def run():
            nodes = await start_nodes(2)
            try:
                await nodes[1].sync_with(0)
                old_codec = nodes[1]._links[0].codec
                assert cache_size(old_codec) > 0
                nodes[1]._drop_link(0)
                await nodes[1].sync_with(0)
                new_codec = nodes[1]._links[0].codec
                return old_codec is new_codec, cache_size(new_codec)
            finally:
                await stop_nodes(nodes)

        same_codec, cache_after = asyncio.run(run())
        assert not same_codec
        assert cache_after > 0    # the new connection built its own cache

    def test_unreachable_peer_raises_after_attempts(self):
        async def run():
            nodes = await start_nodes(2, reconnect_attempts=0)
            try:
                await nodes[0].stop()
                with pytest.raises(NetworkSessionError):
                    await nodes[1].sync_with(0)
            finally:
                await stop_nodes(nodes[1:])

        asyncio.run(run())


def _pending_handlers(node):
    """The tasks still serving one of ``node``'s inbound connections."""
    handlers = ("NetNode._serve_peer", "NetNode._serve_client")
    pending = []
    for task in asyncio.all_tasks():
        coro = task.get_coro()
        frame = getattr(coro, "cr_frame", None)
        if getattr(coro, "__qualname__", "") in handlers and frame is not None:
            if frame.f_locals.get("self") is node:
                pending.append(task)
    return pending


class TestShutdown:
    def test_stop_closes_the_inbound_connections_it_serves(self):
        """After ``stop()`` no handler of an inbound peer or client
        connection is left for the event loop's teardown to cancel."""

        async def run():
            nodes = await start_nodes(2)
            try:
                # Node 1's link to node 0 stays open after the session.
                await nodes[1].sync_with(0)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", nodes[0].client_port
                )
                await write_blob(writer, b'{"op": "ping"}')
                assert json.loads(await read_blob(reader))["ok"] is True
                assert len(_pending_handlers(nodes[0])) == 2
                await nodes[0].stop()
                assert _pending_handlers(nodes[0]) == []
                assert await reader.read() == b""  # closed by the node
                writer.close()
            finally:
                await stop_nodes(nodes[1:])

        asyncio.run(run())


class TestClientOps:
    def test_put_get_status_ping(self):
        async def run():
            nodes = await start_nodes(2)
            try:
                assert (await nodes[0]._handle_client_op({"op": "ping"})) == {
                    "ok": True,
                    "node": 0,
                }
                await nodes[0]._handle_client_op(
                    {"op": "put", "item": "a", "value": b"hey".hex()}
                )
                got = await nodes[0]._handle_client_op(
                    {"op": "get", "item": "a"}
                )
                assert bytes.fromhex(got["value"]) == b"hey"
                synced = await nodes[1]._handle_client_op(
                    {"op": "sync", "peer": 0}
                )
                assert synced["adopted"] == ["a"]
                # ``status`` is streamed by the connection's server; its
                # snapshot holds what the reply will say.
                status = nodes[1]._status()
                assert {name: value for name, value, _ in status.rows}["a"] == b"hey"
                assert status.fields["dbvv"] == [1, 0]
                assert status.fields["conflicts"] == 0
                assert status.fields["census"] == {"PropagationRequest": 1}
            finally:
                await stop_nodes(nodes)

        asyncio.run(run())

    def test_unknown_op_reports_error(self):
        async def run():
            nodes = await start_nodes(2)
            try:
                return await nodes[0]._handle_client_op({"op": "frobnicate"})
            finally:
                await stop_nodes(nodes)

        response = asyncio.run(run())
        assert response["ok"] is False
        assert "frobnicate" in response["error"]

    @pytest.mark.parametrize("payload", [b"[1]", b'"x"'])
    def test_non_object_json_is_a_typed_rejection(self, payload):
        """Valid JSON that is not an object gets the same ``bad
        request`` reply as any malformed request, and the connection
        stays usable."""

        async def run():
            nodes = await start_nodes(2)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", nodes[0].client_port
                )
                try:
                    await write_blob(writer, payload)
                    rejected = json.loads(await read_blob(reader))
                    await write_blob(writer, b'{"op": "ping"}')
                    return rejected, json.loads(await read_blob(reader))
                finally:
                    writer.close()
            finally:
                await stop_nodes(nodes)

        rejected, pong = asyncio.run(run())
        assert rejected["ok"] is False
        assert rejected["error"].startswith("bad request: ")
        assert pong == {"ok": True, "node": 0}

    @pytest.mark.parametrize("peer", ["true", "1.9", '"1"', "null", "7"])
    def test_sync_peer_must_be_a_node_id_as_it_arrived(self, peer):
        """``peer`` is validated as the JSON value it is, never coerced:
        ``true``, ``1.9`` and ``"1"`` used to start a session with node
        1.  The reply is typed and the connection stays usable."""

        async def run():
            nodes = await start_nodes(2)
            try:
                reader, writer = await _connect(nodes[0])
                try:
                    sync = b'{"op": "sync", "peer": %s}' % peer.encode()
                    writer.write(_framed(sync, {"op": "ping"}))
                    rejected, pong = await _replies(reader, 2)
                    return rejected, pong, dict(nodes[0].census)
                finally:
                    writer.close()
            finally:
                await stop_nodes(nodes)

        rejected, pong, sent = asyncio.run(run())
        assert rejected["ok"] is False
        assert "node id" in rejected["error"]
        assert pong == {"ok": True, "node": 0}
        assert sent == {}  # no session was started

    @pytest.mark.parametrize(
        "request_json, complaint",
        [
            (b'{"op": "get", "item": "%s"}' % (b"n" * 100_000), "exceeds cap"),
            (b'{"op": "get", "item": 5}', "must be a str"),
            (b'{"op": "get", "item": null}', "must be a str"),
            (b'{"op": "get"}', "bad request: 'item'"),
        ],
        ids=["oversize", "number", "null", "missing"],
    )
    def test_get_validates_its_item_name_like_put(self, request_json, complaint):
        """The name is not looked up, and not echoed back, before it has
        passed ``validate_item_name``; the connection stays usable."""

        async def run():
            nodes = await start_nodes(2)
            try:
                reader, writer = await _connect(nodes[0])
                try:
                    writer.write(_framed(request_json, {"op": "ping"}))
                    rejected = await read_blob(reader)
                    return rejected, json.loads(await read_blob(reader))
                finally:
                    writer.close()
            finally:
                await stop_nodes(nodes)

        rejected, pong = asyncio.run(run())
        assert len(rejected) < 200
        rejected = json.loads(rejected)
        assert rejected["ok"] is False
        assert complaint in rejected["error"]
        assert pong == {"ok": True, "node": 0}


class TestHotReplies:
    """A successful ``put``/``get`` is answered without ``json.dumps``,
    in the bytes ``json.dumps`` would have produced."""

    @staticmethod
    def _raw_replies(node, *requests):
        """The reply blobs of ``requests`` delivered in one segment to
        ``node``'s stock ``_serve_client`` (no socket)."""

        class Sink:
            written = b""

            def write(self, data):
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
            await node._serve_client(reader, sink)
            replies = asyncio.StreamReader()
            replies.feed_data(sink.written)
            replies.feed_eof()
            return [await read_blob(replies) for _ in requests]

        return asyncio.run(run())

    @settings(max_examples=60, deadline=None)
    @given(value=st.binary(max_size=4096))
    @example(value=b"")
    @example(value=bytes(range(256)) * 4096)  # 1 MiB
    def test_reply_bytes_are_what_json_dumps_spells(self, value):
        node = NetNode(NodeConfig(node_id=0, items=ITEMS))
        put, got = self._raw_replies(
            node,
            {"op": "put", "item": "a", "value": value.hex()},
            {"op": "get", "item": "a"},
        )
        assert put == json.dumps({"ok": True}).encode("utf-8")
        assert got == json.dumps({"ok": True, "value": value.hex()}).encode("utf-8")

    def test_whole_buffered_requests_cost_no_stream_read_and_no_dumps(
        self, monkeypatch
    ):
        """1 000 gets and 1 000 puts sent at once: every unit that is
        whole in the buffer is handed out by ``next_unit`` — none of the
        byte-at-a-time readers runs — and ``json.dumps`` runs for the
        one reply that is an error."""
        calls = {"read": 0, "readexactly": 0, "read_stream_uvarint": 0, "dumps": 0}

        def counted(name, inner):
            def spy(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return spy

        for name in ("read", "readexactly"):
            monkeypatch.setattr(
                BufferedReader, name, counted(name, getattr(BufferedReader, name))
            )
        monkeypatch.setattr(
            framing,
            "read_stream_uvarint",
            counted("read_stream_uvarint", framing.read_stream_uvarint),
        )
        requests = []
        for k in range(1000):
            requests.append({"op": "put", "item": "a", "value": (b"v%d" % k).hex()})
            requests.append({"op": "get", "item": "a"})
        segment = _framed(*requests, {"op": "get", "item": "no-such-item"})
        monkeypatch.setattr(
            node_module,
            "json",
            types.SimpleNamespace(
                loads=json.loads, dumps=counted("dumps", json.dumps)
            ),
        )

        async def run():
            nodes = await start_nodes(2)
            try:
                reader, writer = await _connect(nodes[0])
                writer.write(segment)
                reader = BufferedReader(reader)  # or this end would count
                replies = [await read_blob(reader) for _ in range(2001)]
                seen = dict(calls)  # before the hang-up, which is read by bytes
                writer.close()
                return replies, seen
            finally:
                await stop_nodes(nodes)

        replies, seen = asyncio.run(run())
        assert replies[-2] == b'{"ok": true, "value": "%s"}' % b"v999".hex().encode()
        assert json.loads(replies[-1])["ok"] is False
        assert seen == {"read": 0, "readexactly": 0, "read_stream_uvarint": 0, "dumps": 1}


class TestWritePathNeverHashes:
    """The content digest is folded when somebody reads it, and nothing
    in a ``repro.net`` process does: no put, adopted item, status dump,
    checkpoint or recovery may call ``value_digest``."""

    @pytest.mark.parametrize("durable", [False, True])
    def test_put_sync_get_and_restart_call_value_digest_zero_times(
        self, durable, tmp_path, monkeypatch
    ):
        calls = []

        def spy(item, value):
            calls.append(item)
            return 0

        monkeypatch.setattr("repro.interfaces.value_digest", spy)
        data_dir = tmp_path if durable else None

        async def drive(nodes, *requests):
            reader, writer = await _connect(nodes[1])
            try:
                writer.write(_framed(*requests))
                return await _replies(reader, len(requests))
            finally:
                writer.close()

        async def run():
            nodes = await start_nodes(2, data_dir=data_dir)
            try:
                for k in range(3):
                    nodes[0].node.update("a", Put(b"remote-%d" % k))
                replies = await drive(
                    nodes,
                    {"op": "put", "item": "b", "value": b"local".hex()},
                    {"op": "put", "item": "b", "value": b"".hex()},
                    {"op": "sync", "peer": 0},
                    {"op": "get", "item": "a"},
                    {"op": "status"},
                )
                if durable:  # what a kill -9 would leave: a WAL to replay
                    shutil.copytree(tmp_path / "node-1", tmp_path / "killed")
            finally:
                await stop_nodes(nodes)
            if not durable:
                return replies
            killed = NetNode(
                dataclasses.replace(
                    nodes[1].config, data_dir=str(tmp_path / "killed")
                )
            )
            killed.journal.close()
            assert killed.journal.records_replayed == 4  # identity, then three
            assert killed.node.read("a") == b"remote-2"
            # The clean stop checkpointed; this start loads the snapshot.
            nodes = await start_nodes(2, data_dir=data_dir)
            try:
                assert nodes[1].journal.records_replayed == 0
                return replies + await drive(nodes, {"op": "get", "item": "a"})
            finally:
                await stop_nodes(nodes)

        replies = asyncio.run(run())
        assert all(reply["ok"] for reply in replies)
        assert replies[2]["adopted"] == ["a"]
        assert bytes.fromhex(replies[3]["value"]) == b"remote-2"
        if durable:
            assert bytes.fromhex(replies[-1]["value"]) == b"remote-2"
        assert calls == []


@st.composite
def schemas_and_bursts(draw):
    """An item schema and up to three bursts of puts at either replica,
    each burst followed by replica 1 pulling from replica 0."""
    names = draw(
        st.lists(
            st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    put = st.tuples(st.sampled_from((0, 1)), st.sampled_from(names), st.binary(max_size=6))
    return names, draw(st.lists(st.lists(put, max_size=6), min_size=1, max_size=3))


class TestVerbatimJournal:
    """A durable pull journals the reply payload it decoded, byte for
    byte, and those bytes alone rebuild the node that adopted it."""

    @settings(max_examples=15, deadline=None)
    @given(schemas_and_bursts())
    def test_the_journaled_payload_recovers_the_adopting_node(self, case):
        names, bursts = case
        arrived: list[bytes] = []
        read_frame = node_module.read_frame

        async def recording_read_frame(reader):
            frame = await read_frame(reader)
            arrived.append(frame)
            return frame

        async def run(tmp):
            nodes = await start_nodes(2, items=tuple(names), data_dir=tmp)
            journaled: list[bytes] = []
            record_accept = nodes[1].journal.record_accept
            nodes[1].journal.record_accept = lambda payload: (
                journaled.append(bytes(payload)) or record_accept(payload)
            )
            try:
                for burst in bursts:
                    for who, name, value in burst:
                        put = {"op": "put", "item": name, "value": value.hex()}
                        await nodes[who]._handle_client_op(put)
                    await nodes[1].sync_with(0)
                # What a kill -9 would leave behind.
                shutil.copytree(tmp / "node-1", tmp / "killed")
                return journaled, node_state(nodes[1].node)
            finally:
                await stop_nodes(nodes)

        node_module.read_frame = recording_read_frame
        try:
            with tempfile.TemporaryDirectory(prefix="verbatim-") as tmp:
                journaled, adopted = asyncio.run(run(Path(tmp)))
                journal = NodeJournal(Path(tmp) / "killed", fsync=False)
                recovered = journal.recover(EpidemicNode, 1, 2, names)
                # A run that journaled nothing never created the file.
                wal = journal.wal_path.read_bytes() if journal.wal_path.exists() else b""
        finally:
            node_module.read_frame = read_frame

        assert node_state(recovered) == adopted
        payloads = {frame[read_uvarint(frame, 0)[1]:] for frame in arrived}
        assert all(payload in payloads for payload in journaled)
        bodies, _ = WriteAheadLog.scan(wal)
        accepts = [
            body[read_uvarint(body, 0)[1] + 1:]
            for body in bodies
            if isinstance(decode_record(journal.codec, body)[1], WalAccept)
        ]
        assert accepts == journaled


class TestScheduler:
    def test_background_anti_entropy_converges_two_nodes(self):
        async def run():
            nodes = await start_nodes(2, anti_entropy_period=0.02)
            try:
                nodes[0].node.update("a", Put(b"gossip"))
                for _ in range(200):
                    if nodes[1].node.read("a") == b"gossip":
                        return True
                    await asyncio.sleep(0.02)
                return False
            finally:
                await stop_nodes(nodes)

        assert asyncio.run(run())


def _framed(*payloads):
    """Length-prefixed client requests, back to back."""
    out = bytearray()
    for payload in payloads:
        if not isinstance(payload, bytes):
            payload = json.dumps(payload).encode("utf-8")
        write_uvarint(out, len(payload))
        out += payload
    return bytes(out)


async def _connect(node):
    return await asyncio.open_connection("127.0.0.1", node.client_port)


async def _replies(reader, count):
    return [json.loads(await read_blob(reader)) for _ in range(count)]


class _WriteSpy:
    """Counts the replies ``repro.net.node`` has handed to the transport;
    ``sizes`` is the number of replies in each ``write_blob`` call."""

    def __init__(self, monkeypatch):
        self.sizes = []
        inner = node_module.write_blob

        async def write_blob_spy(writer, *payloads):
            self.sizes.append(len(payloads))
            await inner(writer, *payloads)

        monkeypatch.setattr(node_module, "write_blob", write_blob_spy)

    @property
    def written(self):
        return sum(self.sizes)


class TestClientPipelining:
    """A client may send its next request before the last reply: what one
    wake-up delivers is served in order and answered in one write."""

    @staticmethod
    def _mixed_requests(count, seed):
        rng = random.Random(seed)
        kinds = [
            lambda: {"op": "put", "item": rng.choice(ITEMS), "value": rng.randbytes(rng.randrange(40)).hex()},
            lambda: {"op": "get", "item": rng.choice(ITEMS)},
            lambda: {"op": "ping"},
            lambda: {"op": "frobnicate", "n": rng.randrange(10)},
            lambda: rng.choice([b"[1]", b'"x"', b"7", b"{not json"]),
            lambda: {"op": "get", "item": "no-such-item"},
            lambda: {"op": "put", "item": "a", "value": "not hex"},
            lambda: {"op": "put", "item": "a"},
        ]  # fmt: skip
        weights = [30, 30, 10, 5, 5, 5, 5, 5]
        return [rng.choices(kinds, weights)[0]() for _ in range(count)]

    def test_a_pipelined_mix_gets_the_one_at_a_time_replies_in_order(
        self, monkeypatch
    ):
        requests = self._mixed_requests(5000, seed=19)
        spy = _WriteSpy(monkeypatch)

        async def run():
            nodes = await start_nodes(2)
            try:
                reader, writer = await _connect(nodes[0])
                writer.write(_framed(*requests))
                pipelined = await _replies(reader, len(requests))
                batches = list(spy.sizes)
                writer.close()
                # The same requests, each sent after the previous reply,
                # to the replica that has seen none of them.
                reader, writer = await _connect(nodes[1])
                one_at_a_time = []
                for request in requests:
                    writer.write(_framed(request))
                    one_at_a_time += await _replies(reader, 1)
                writer.close()
                return pipelined, one_at_a_time, batches
            finally:
                await stop_nodes(nodes)

        pipelined, one_at_a_time, batches = asyncio.run(run())
        for reply in one_at_a_time:
            reply.pop("node", None)  # ping names the replica that answered
        for reply in pipelined:
            reply.pop("node", None)
        assert pipelined == one_at_a_time
        assert {reply["ok"] for reply in pipelined} == {True, False}
        # One transport write per wake-up, not per request.
        assert sum(batches) == len(requests)
        assert len(batches) < len(requests) // 20

    def test_a_request_split_across_segments_delays_nothing_before_it(self):
        big = {"op": "put", "item": "a", "value": (b"v" * 100).hex()}
        framed = _framed(big)
        assert framed[0] & 0x80  # a two-byte prefix to split

        async def run():
            nodes = await start_nodes(2)
            try:
                reader, writer = await _connect(nodes[0])
                # A whole ping and the first prefix byte of the put.
                writer.write(_framed({"op": "ping"}) + framed[:1])
                assert (await _replies(reader, 1))[0]["ok"]
                # The rest of the prefix and half of the payload.
                writer.write(framed[1:60])
                await asyncio.sleep(0.05)
                assert nodes[0].node.read("a") == b""
                writer.write(framed[60:] + _framed({"op": "get", "item": "a"}))
                put, got = await _replies(reader, 2)
                writer.close()
                return put, got
            finally:
                await stop_nodes(nodes)

        put, got = asyncio.run(run())
        assert put == {"ok": True}
        assert bytes.fromhex(got["value"]) == b"v" * 100

    @pytest.mark.parametrize(
        "garbage",
        [b"\x80" * 10, b"\x81\x80\x80\x20" + b"x" * 32],
        ids=["unterminated-prefix", "oversized-prefix"],
    )
    def test_replies_before_a_malformed_frame_are_not_lost(self, garbage):
        """``[valid get][malformed prefix]`` in one segment: the get is
        answered, then the connection is dropped."""

        async def run():
            nodes = await start_nodes(2)
            try:
                nodes[0].node.update("a", Put(b"kept"))
                reader, writer = await _connect(nodes[0])
                writer.write(_framed({"op": "get", "item": "a"}) + garbage)
                reply = (await _replies(reader, 1))[0]
                rest = await reader.read()
                writer.close()
                return reply, rest
            finally:
                await stop_nodes(nodes)

        reply, rest = asyncio.run(run())
        assert bytes.fromhex(reply["value"]) == b"kept"
        assert rest == b""  # dropped, nothing more said

    @staticmethod
    def _durable_node(data_dir):
        return NetNode(NodeConfig(node_id=0, items=ITEMS, data_dir=str(data_dir)))

    def test_durable_acks_leave_with_their_batch_after_their_own_fsync(
        self, tmp_path, monkeypatch
    ):
        """N pipelined puts on a journaled node are N fsyncs; each ack
        is held until its own commit returned, then shares the batch's
        one write with the gets and pings around it."""
        spy = _WriteSpy(monkeypatch)
        requests = []
        for k in range(40):
            requests.append({"op": "get", "item": "b"})
            if k % 3:
                requests.append({"op": "ping"})
            requests.append({"op": "put", "item": "a", "value": bytes([k]).hex()})
        put_positions = [
            index for index, request in enumerate(requests) if request["op"] == "put"
        ]
        written_at_commit = []

        async def run():
            node = self._durable_node(tmp_path)
            commit = node.journal.commit

            def commit_spy(state):
                written_at_commit.append(spy.written)
                return commit(state)

            monkeypatch.setattr(node.journal, "commit", commit_spy)
            await node.start()
            try:
                before = node._status().fields["durable"]["fsyncs"]
                reader, writer = await _connect(node)
                writer.write(_framed(*requests))
                replies = await _replies(reader, len(requests))
                writer.close()
                return replies, node._status().fields["durable"]["fsyncs"] - before
            finally:
                await node.stop()

        replies, fsyncs = asyncio.run(run())
        assert all(reply["ok"] for reply in replies)
        assert fsyncs == len(put_positions)
        # At each commit, only replies to the requests before that put
        # have reached ``write_blob``: neither its ack nor a later one.
        assert len(written_at_commit) == len(put_positions)
        assert all(
            written <= position
            for written, position in zip(written_at_commit, put_positions)
        )
        # The batch goes out in a few writes, not one or two per put.
        assert sum(spy.sizes) == len(requests)
        assert len(spy.sizes) < len(requests) // 10

    def test_a_failed_commit_still_sends_the_acks_before_it(
        self, tmp_path, monkeypatch
    ):
        """Five pipelined puts whose third fsync fails: the two synced
        puts are acknowledged, the failing one is not, and the
        connection ends."""
        fsync = os.fsync
        calls = [0]

        def failing_fsync(fd):
            calls[0] += 1
            if calls[0] == 3:
                raise OSError(errno.EIO, "injected fsync failure")
            return fsync(fd)

        puts = [{"op": "put", "item": "a", "value": bytes([k]).hex()} for k in range(5)]

        async def run():
            node = self._durable_node(tmp_path)
            await node.start()
            try:
                monkeypatch.setattr(wal_module.os, "fsync", failing_fsync)
                reader, writer = await _connect(node)
                writer.write(_framed(*puts))
                replies = await _replies(reader, 2)
                rest = await reader.read()
                writer.close()
                return replies, rest
            finally:
                await node.stop()

        replies, rest = asyncio.run(run())
        assert replies == [{"ok": True}] * 2
        assert rest == b""  # the third put's ack never came: EOF
        assert calls[0] >= 3

    def test_nothing_is_held_across_a_sync(self, monkeypatch):
        """``get, sync, get`` in one segment: the first reply is on the
        wire before the session to the peer starts."""
        spy = _WriteSpy(monkeypatch)
        written_at_sync = []

        async def run():
            nodes = await start_nodes(2)
            try:
                nodes[1].node.update("a", Put(b"pulled"))
                sync_with = nodes[0].sync_with

                async def sync_spy(peer_id):
                    written_at_sync.append(spy.written)
                    return await sync_with(peer_id)

                monkeypatch.setattr(nodes[0], "sync_with", sync_spy)
                reader, writer = await _connect(nodes[0])
                get = {"op": "get", "item": "a"}
                writer.write(_framed(get, {"op": "sync", "peer": 1}, get))
                replies = await _replies(reader, 3)
                writer.close()
                return replies
            finally:
                await stop_nodes(nodes)

        before, synced, after = asyncio.run(run())
        assert written_at_sync == [1]
        assert before["value"] == ""
        assert synced["adopted"] == ["a"]
        assert bytes.fromhex(after["value"]) == b"pulled"

    def test_held_replies_are_capped(self, monkeypatch):
        """Large replies are not piled up behind a pipelining client:
        past the cap the batch goes to the transport (and its drain)."""
        spy = _WriteSpy(monkeypatch)
        monkeypatch.setattr(node_module, "_HELD_CAP", 100)

        async def run():
            nodes = await start_nodes(2)
            try:
                nodes[0].node.update("a", Put(b"v" * 60))  # a 140-byte reply
                reader, writer = await _connect(nodes[0])
                writer.write(_framed(*[{"op": "get", "item": "a"}] * 50))
                replies = await _replies(reader, 50)
                writer.close()
                return replies
            finally:
                await stop_nodes(nodes)

        assert all(reply["ok"] for reply in asyncio.run(run()))
        assert spy.sizes == [1] * 50
