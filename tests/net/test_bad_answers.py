"""A node that dials a peer which answers badly.

The peer here is a script, not a ``NetNode``: it completes the preamble
like an honest replica and then answers each request with whatever the
test queued — raw bytes, or ``None`` for the honest answer of a real
``EpidemicNode``.  Whatever comes back, the dialling node must

* raise a *typed* error (``WireFormatError``/``ValidationError``), which
  its client sees as ``{"ok": false}`` on a connection that stays up;
* leave its store, DBVV and logs exactly as they were;
* drop the link, so the delta-VV caches the failed decode tore go with
  it and the next pull redials with full vectors.
"""

import asyncio
import dataclasses
from pathlib import Path

import pytest

from repro.core import validate as validate_module
from repro.core.messages import PropagationReply
from repro.core.node import EpidemicNode
from repro.core.session import respond
from repro.errors import NetworkSessionError, ValidationError, WireFormatError
from repro.net.config import NodeConfig, PeerAddress
from repro.net.framing import (
    MAGIC,
    PROTOCOL_VERSION,
    ConnectionClosed,
    read_frame,
    receive_preamble,
)
from repro.net.harness import _free_ports
from repro.net.node import NetNode
from repro.substrate.operations import Put
from repro.wire import Schema, WireCodec
from repro.wire.varint import read_uvarint, write_uvarint
from tests.net.test_node import (
    ITEMS,
    _connect,
    _framed,
    _replies,
    start_nodes,
    stop_nodes,
)
from tests.node_state import node_state

CORPUS = Path(__file__).parents[1] / "wire" / "corpus"
SCHEMA = Schema(ITEMS)


def _corpus(name):
    return bytes.fromhex("".join((CORPUS / f"{name}.hex").read_text().split()))


def _preamble(version, node_id):
    out = bytearray()
    for field in (MAGIC, version, node_id):
        write_uvarint(out, field)
    return bytes(out) + SCHEMA.digest


class ScriptedPeer:
    """Replica 1 of a two-node database, as far as a dialler can tell."""

    def __init__(self, port, version=PROTOCOL_VERSION):
        self.port = port
        self.version = version
        self.state = EpidemicNode(1, 2, list(ITEMS))
        self.script = []
        self.connections = 0
        self.full_dbvvs = 0

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._serve, "127.0.0.1", self.port
        )
        return self

    async def __aexit__(self, *exc_info):
        self._server.close()
        await self._server.wait_closed()

    def answer_to(self, request, codec):
        """The honest answer's frame (the script may forge from it)."""
        return codec.encode(1, 0, respond(self.state, request))

    async def _serve(self, reader, writer):
        self.connections += 1
        try:
            assert await receive_preamble(reader) == (0, SCHEMA.digest)
            writer.write(_preamble(self.version, node_id=1))
            codec = WireCodec(SCHEMA)
            while True:
                frame = await read_frame(reader)
                self.full_dbvvs += frame[3] == 0  # id · recipient · vv tag
                request = codec.decode(0, 1, frame)
                step = self.script.pop(0) if self.script else None
                if callable(step):
                    step = step(request, codec)
                writer.write(
                    self.answer_to(request, codec) if step is None else step
                )
                await writer.drain()
        except ConnectionClosed:
            pass
        finally:
            writer.close()


async def _dialler_and_peer(version=PROTOCOL_VERSION):
    ports = _free_ports(2)
    node = NetNode(
        NodeConfig(
            node_id=0,
            items=ITEMS,
            peer_port=ports[0],
            peers=(PeerAddress(1, "127.0.0.1", ports[1]),),
            reconnect_attempts=0,
        )
    )
    await node.start()
    return node, ScriptedPeer(ports[1], version)


def _forged(request, **lies):
    """An honest replica 1's reply to ``request`` with fields replaced;
    framed by a codec of its own (the link is about to die anyway)."""
    peer = EpidemicNode(1, 2, list(ITEMS))
    peer.update("a", Put(b"from-1"))
    reply = respond(peer, request)
    assert isinstance(reply, PropagationReply)
    lies = {field: lie(reply) for field, lie in lies.items()}
    return WireCodec(SCHEMA).encode(1, 0, dataclasses.replace(reply, **lies))


def _wrong_source(request, codec):
    return _forged(request, source=lambda reply: 0)


def _forged_body(request, codec):
    """Well-formed, from the right source, and a lie: the tail's seqnos
    do not climb (svarint carries it; the validator must catch it)."""
    return _forged(
        request,
        tails=lambda reply: (reply.tails[0], reply.tails[1] + (("a", 1),)),
    )


def _item_shipped_twice(request, codec):
    """S is not a set: the one payload of the honest reply, twice.  It
    encodes and decodes; adopted, the second copy would be skipped as
    equal and take the item's only log record with it."""
    return _forged(request, items=lambda reply: reply.items * 2)


def _item_without_a_record(request, codec):
    """D does not name S: the payload ships, its tail record does not."""
    return _forged(request, tails=lambda reply: ((), ()))


BAD_ANSWERS = {
    "garbage": (b"\x05\xde\xad\xbe\xef\x00", WireFormatError),
    "delta-overflows-u64": (_corpus("delta_vv_overflows_u64"), WireFormatError),
    "item-shipped-twice": (_item_shipped_twice, ValidationError),
    "item-without-a-record": (_item_without_a_record, ValidationError),
    "nested-reply-v1": (_corpus("nested_reply_v1"), WireFormatError),
    "nested-reply": (_corpus("nested_reply"), WireFormatError),
    "parent-written-reply": (_corpus("reply_v1_parent_written"), WireFormatError),
    "v2-reply": (_corpus("reply_v2_parent_written"), WireFormatError),
    "delta-ivv-in-a-reply": (_corpus("reply_delta_ivv"), WireFormatError),
    "wrong-source": (_wrong_source, ValidationError),
    "forged-body": (_forged_body, ValidationError),
}


@pytest.mark.parametrize("case", sorted(BAD_ANSWERS))
def test_a_bad_answer_is_a_typed_error_and_costs_the_link(case, monkeypatch):
    answer, error = BAD_ANSWERS[case]
    entered = []
    inner = EpidemicNode.accept_propagation
    monkeypatch.setattr(
        EpidemicNode,
        "accept_propagation",
        lambda self, reply: entered.append(reply) or inner(self, reply),
    )

    async def run():
        node, peer = await _dialler_and_peer()
        async with peer:
            try:
                node.node.update("b", Put(b"mine"))
                peer.state.update("a", Put(b"theirs"))
                before = node_state(node.node)

                # Straight at the API: the typed error itself.
                peer.script.append(answer)
                with pytest.raises(error):
                    await node.sync_with(1)
                assert 1 not in node._links
                assert node_state(node.node) == before
                assert entered == []

                # Through the client port: refused, connection kept.
                peer.script.append(answer)
                reader, writer = await _connect(node)
                writer.write(
                    _framed({"op": "sync", "peer": 1}, {"op": "ping"})
                )
                refused, pong = await _replies(reader, 2)
                assert refused["ok"] is False and refused["error"]
                assert pong == {"ok": True, "node": 0}
                assert 1 not in node._links
                assert node_state(node.node) == before
                assert entered == []

                # The next pull redials — full vectors — and adopts.
                writer.write(_framed({"op": "sync", "peer": 1}))
                (healed,) = await _replies(reader, 1)
                writer.close()
                assert healed["ok"] and healed["adopted"] == ["a"]
                assert peer.connections == peer.full_dbvvs == 3
                assert len(entered) == 1
            finally:
                await node.stop()

    asyncio.run(run())


def test_a_bad_answer_does_not_kill_the_scheduler():
    """The anti-entropy task survives what it can name.  A delta that
    pushes a component past 64 bits used to surface as a bare
    ``ValueError`` — not a ``ReplicationError`` — and the task died
    with it; now it is this round's failed session and the next round
    redials and adopts."""

    async def run():
        ports = _free_ports(2)
        node = NetNode(
            NodeConfig(
                node_id=0,
                items=ITEMS,
                peer_port=ports[0],
                peers=(PeerAddress(1, "127.0.0.1", ports[1]),),
                reconnect_attempts=0,
                anti_entropy_period=0.01,
            )
        )
        peer = ScriptedPeer(ports[1])
        peer.state.update("a", Put(b"theirs"))
        peer.script.append(_corpus("delta_vv_overflows_u64"))
        async with peer:
            await node.start()
            try:
                for _ in range(500):
                    if node.node.read("a") == b"theirs":
                        break
                    await asyncio.sleep(0.01)
                assert node.node.read("a") == b"theirs"
                assert peer.connections >= 2  # the bad answer cost the link
                assert not node._anti_entropy_task.done()
            finally:
                await node.stop()

    asyncio.run(run())


def test_a_failed_decode_does_not_leave_torn_caches_behind():
    """Two shipped items, the frame cut inside the second.  A reply
    reads no cache, but the peer's request stream and this end's do:
    the link goes, and the next pull redials with full vectors."""

    async def run():
        node, peer = await _dialler_and_peer()
        async with peer:
            try:
                peer.state.update("a", Put(b"one"))
                peer.state.update("b", Put(b"two"))

                def cut_short(request, codec):
                    frame = peer.answer_to(request, codec)
                    _, start = read_uvarint(frame, 0)
                    body = frame[start : frame.index(b"two")]
                    out = bytearray()
                    write_uvarint(out, len(body))
                    return bytes(out) + body

                peer.script.append(cut_short)
                with pytest.raises(WireFormatError):
                    await node.sync_with(1)
                assert 1 not in node._links
                outcome = await node.sync_with(1)
                assert sorted(outcome.adopted) == ["a", "b"]
                assert peer.connections == 2
            finally:
                await node.stop()

    asyncio.run(run())


def test_version_1_preamble_is_refused_naming_both_versions():
    async def run():
        node, peer = await _dialler_and_peer(version=1)
        async with peer:
            try:
                with pytest.raises(
                    NetworkSessionError,
                    match="peer speaks protocol version 1, this node speaks 3",
                ):
                    await node.sync_with(1)
                assert 1 not in node._links
            finally:
                await node.stop()

    asyncio.run(run())


def test_a_version_1_dialler_is_hung_up_on_before_any_frame(caplog):
    async def run():
        nodes = await start_nodes(2)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", nodes[0].peer_port
            )
            writer.write(
                _preamble(version=1, node_id=1)
                + _corpus("reply_v1_parent_written")
            )
            await writer.drain()
            assert await reader.read() == b""  # no preamble back, no answer
            writer.close()
            return nodes[0].sessions_served
        finally:
            await stop_nodes(nodes)

    with caplog.at_level("WARNING", logger="repro.net"):
        assert asyncio.run(run()) == 0
    assert "peer speaks protocol version 1, this node speaks 3" in caplog.text


def test_replicas_with_reordered_items_refuse_each_other(caplog):
    """Same item names, same count, another order: positions would name
    different items, so the handshake refuses on both ends and no frame
    is exchanged."""

    async def run():
        ports = _free_ports(2)
        nodes = [
            NetNode(
                NodeConfig(
                    node_id=node_id,
                    items=items,
                    peer_port=ports[node_id],
                    peers=(PeerAddress(1 - node_id, "127.0.0.1", ports[1 - node_id]),),
                    reconnect_attempts=0,
                )
            )
            for node_id, items in ((0, ("a", "b")), (1, ("b", "a")))
        ]
        for node in nodes:
            await node.start()
        try:
            with pytest.raises(NetworkSessionError, match="another item schema"):
                await nodes[0].sync_with(1)
            assert 1 not in nodes[0]._links
            return [(node.frames_sent, node.sessions_served) for node in nodes]
        finally:
            for node in nodes:
                await node.stop()

    with caplog.at_level("WARNING", logger="repro.net"):
        assert asyncio.run(run()) == [(0, 0), (0, 0)]
    assert "peer 0 holds another item schema" in caplog.text


def test_the_reply_body_is_validated_once_per_pull(monkeypatch):
    """The transport checks type and source, the session checks the body
    — so ``_validate_payload`` runs once per shipped item, not twice."""
    calls = []
    inner = validate_module._validate_payload
    monkeypatch.setattr(
        validate_module,
        "_validate_payload",
        lambda payload, node: calls.append(payload.name) or inner(payload, node),
    )

    async def run():
        nodes = await start_nodes(2, items=("a", "b", "c"))
        try:
            for name in ("a", "b", "c", "a"):
                nodes[0].node.update(name, Put(b"v-" + name.encode()))
            first = await nodes[1].sync_with(0)
            shipped = list(calls)
            again = await nodes[1].sync_with(0)
            return first, shipped, again
        finally:
            await stop_nodes(nodes)

    first, shipped, again = asyncio.run(run())
    assert sorted(first.adopted) == ["a", "b", "c"]
    assert sorted(shipped) == ["a", "b", "c"]
    assert again.identical and len(calls) == 3
