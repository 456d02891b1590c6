"""In-process tests for the asyncio replica (repro.net.node).

NetNode is just asyncio servers plus the shared session driver, so a
whole cluster can run inside one event loop — no subprocesses needed
to exercise sessions, reconnects, the client operations, and the
anti-entropy scheduler.  The multi-process path is covered by
``test_cluster.py`` and the parity suite.
"""

import asyncio
import json

import pytest

from repro.errors import NetworkSessionError
from repro.net.config import NodeConfig, PeerAddress
from repro.net.framing import read_blob, write_blob
from repro.net.harness import _free_ports
from repro.net.node import NetNode
from repro.substrate.operations import Put

ITEMS = ("a", "b")


async def start_nodes(
    n, items=ITEMS, reconnect_attempts=1, anti_entropy_period=0.0, seed=0
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
                assert old_codec.cache_size() > 0
                nodes[1]._drop_link(0)
                await nodes[1].sync_with(0)
                new_codec = nodes[1]._links[0].codec
                return old_codec is new_codec, new_codec.cache_size()
            finally:
                await stop_nodes(nodes)

        same_codec, cache_after = asyncio.run(run())
        assert not same_codec
        assert cache_after > 0    # the new connection built its own caches

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
                status = await nodes[1]._handle_client_op({"op": "status"})
                assert status["store"]["a"] == b"hey".hex()
                assert status["dbvv"] == [1, 0]
                assert status["conflicts"] == 0
                assert status["census"] == {"PropagationRequest": 1}
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
