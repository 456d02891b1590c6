"""The networked epidemic node: one asyncio process per replica.

This is the deployment the simulator models.  The pure
:class:`~repro.core.node.EpidemicNode` state machine is driven through
the *same* sans-I/O session driver (:mod:`repro.core.session`) the
simulator's protocol adapter uses — this module adds only the I/O
edges:

* a **peer listener** accepting anti-entropy connections from other
  replicas (``SendPropagation`` service: one
  :class:`~repro.core.messages.PropagationRequest` in, one answer out,
  over :mod:`repro.wire` frames);
* **outbound peer connections** over which this node runs its own pull
  sessions, one at a time per peer;
* a **client listener** serving a small length-prefixed JSON API
  (put/get/sync/status/ping/shutdown) for applications and the parity
  harness, pipelined requests (journaled puts too) served a wake-up's
  worth at a time (:meth:`NetNode._serve_client`), and ``status``
  streamed from a snapshot of references (:class:`StatusSnapshot`);
* an optional **anti-entropy scheduler** pulling from a uniformly
  random other peer every ``anti_entropy_period`` seconds.

**One item schema.**  Items travel as positions in the node's
``--items`` schema (:class:`~repro.wire.Schema`), built once and shared
by every connection's codec; the handshake compares schema digests,
so two replicas that name or order their items differently refuse
each other before any frame is exchanged.

**A connection-scoped DBVV cache.**  Every TCP connection gets its own
:class:`~repro.wire.WireCodec` at each end: both endpoints create it at
connect/accept time and retire it with the connection.  The one vector
it caches is the pull request's DBVV — the dialler's last sent, the
server's last seen — so the two are born empty together, advance in
lockstep on the ordered byte stream, and vanish together on
disconnect: any tear in the stream (process crash, reset, clean close)
destroys exactly the cache that could have desynchronised, and the
next connection restarts from a full vector.  A propagation reply
reads no cache at all, so a durable pull journals the payload it
decoded as it is.
"""

from __future__ import annotations

import asyncio
import binascii
import contextlib
import json
import logging
import random
from typing import Any, Iterable, Iterator

from repro.core.node import EpidemicNode
from repro.core.messages import PropagationReply, PropagationRequest
from repro.core.session import PullOutcome, PullSession, respond
from repro.core.validate import (
    validate_item_name,
    validate_node_id,
    validate_propagation_request,
    validate_session_answer,
    validate_value,
)
from repro.durable import NodeJournal
from repro.errors import (
    NetworkSessionError,
    ReplicationError,
    ValidationError,
    WireFormatError,
)
from repro.net.config import NodeConfig
from repro.net.framing import (
    MAX_FRAME_BYTES,
    BufferedReader,
    ConnectionClosed,
    read_blob,
    read_frame,
    receive_preamble,
    send_preamble,
    write_blob,
    write_blob_stream,
    write_frame,
)
from repro.net.tasks import TaskTracker, cancel_and_wait
from repro.substrate.operations import Put
from repro.wire import Schema, WireCodec
from repro.wire.varint import read_uvarint

__all__ = ["NetNode"]

logger = logging.getLogger("repro.net")

#: Reply bytes one client connection may hold for a write: pipelined
#: ``get``s of large values meet back-pressure instead of piling up.
_HELD_CAP = 1 << 16

#: Largest write of a streamed ``status`` reply; the stream drains the
#: transport between two of them.
_STATUS_CHUNK = 1 << 16

#: Bytes one ``recv`` of a node's connection may take.  asyncio's
#: default (256 KiB) is above glibc's initial mmap threshold (128 KiB):
#: until the process has freed a larger block, every read maps and
#: unmaps a fresh 256 KiB buffer.  ``status`` no longer frees such a
#: block, and a durable idle pull measured ≈ 15 % more CPU without this.
_RECV_BYTES = 1 << 16

#: The two replies of the hot path, spelled by ``json.dumps`` once, at
#: import: a successful ``put`` is a constant and a successful ``get``
#: is its value's hex digits (which never need escaping) between two.
_PUT_REPLY = json.dumps({"ok": True}).encode("utf-8")
_GET_HEAD, _GET_TAIL = json.dumps({"ok": True, "value": "|"}).split("|")


def _cap_recv(writer: asyncio.StreamWriter) -> None:
    """Read this connection :data:`_RECV_BYTES` at a time."""
    writer.transport.max_size = _RECV_BYTES  # type: ignore[attr-defined]


class _PeerLink:
    """One live outbound connection, with its connection-scoped codec."""

    __slots__ = ("reader", "writer", "codec")

    def __init__(
        self,
        reader: BufferedReader,
        writer: asyncio.StreamWriter,
        codec: WireCodec,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.codec = codec


class StatusSnapshot:
    """A ``status`` reply, taken between two awaits and never built whole.

    ``fields`` are the small fields after the store (``dbvv``, the
    traffic counters, ``durable``), copied; ``rows`` are one ``(name,
    value, ivv)`` per item, and since a value is immutable ``bytes`` and
    an IVV a tuple, they hold references, not copies of the store.  The
    reply is ``json.dumps({"ok": True, "node": node, "store": {name:
    value.hex()}, "ivvs": {name: list(ivv)}, **fields})`` byte for byte:
    :attr:`length` is counted from the snapshot, and :meth:`chunks`
    spells it a piece at a time, so serving it holds one chunk, not the
    store three times over (hex text, its UTF-8, the framed copy).
    """

    __slots__ = ("node", "rows", "fields", "length")

    def __init__(
        self,
        node: int,
        rows: list[tuple[str, bytes, tuple[int, ...]]],
        fields: dict[str, Any],
    ) -> None:
        self.node = node
        self.rows = rows
        self.fields = fields
        self.length = sum(
            len(part) if isinstance(part, str) else 2 * len(part)
            for part in self._parts()
        )

    def _parts(self) -> Iterator[str | bytes]:
        """The reply in order: JSON text, all ASCII (``json.dumps``
        escapes the rest), and each value as the raw bytes whose hex
        digits stand between its quotes."""
        rows = self.rows
        yield json.dumps({"ok": True, "node": self.node})[:-1] + ', "store": {'
        for index, (name, value, _ivv) in enumerate(rows):
            yield f'{", " if index else ""}{json.dumps(name)}: "'
            yield value
            yield '"'
        yield '}, "ivvs": {'
        for index, (name, _value, ivv) in enumerate(rows):
            yield f'{", " if index else ""}{json.dumps(name)}: [{", ".join(map(str, ivv))}]'
        yield "}, " + json.dumps(self.fields)[1:]

    def chunks(self) -> Iterator[bytearray]:
        """The reply's bytes, at most :data:`_STATUS_CHUNK` at a time,
        each in a buffer of its own (the transport may keep it)."""
        half = _STATUS_CHUNK // 2
        buf = bytearray()
        for part in self._parts():
            if isinstance(part, str):
                pieces: Iterable[bytes] = (part.encode("ascii"),)
            else:
                view = memoryview(part)
                pieces = (
                    binascii.hexlify(view[start : start + half])
                    for start in range(0, len(view), half)
                )
            for piece in pieces:
                if len(buf) + len(piece) > _STATUS_CHUNK:
                    yield buf
                    buf = bytearray()
                buf += piece
        yield buf


class NetNode:
    """One replica of the epidemic database, serving real sockets."""

    def __init__(self, config: NodeConfig) -> None:
        self.config = config
        self.node_id = config.node_id
        self.n_nodes = config.n_nodes
        self.schema = Schema(config.items)
        self.journal: NodeJournal | None = None
        if config.data_dir is not None:
            # Durable mode: recover from whatever the directory holds
            # (a fresh replica when it is empty), then journal every
            # accepted input from here on.  A real fsync per group
            # commit — a killed process must find its state again.
            self.journal = NodeJournal(config.data_dir, fsync=True)
            self.node = self.journal.recover(
                EpidemicNode,
                config.node_id,
                config.n_nodes,
                list(config.items),
            )
        else:
            self.node = EpidemicNode(
                config.node_id, config.n_nodes, list(config.items)
            )
        # Frame-type census of frames *sent* by this process; summing
        # the census over all processes of a cluster reproduces the
        # simulator network's delivered-frame census (nothing drops
        # frames between send and receive on a healthy TCP stream).
        self.census: dict[str, int] = {}
        self.frames_sent = 0
        self.bytes_sent = 0
        self.reconnects = 0
        self.sync_retries = 0
        self.sessions_served = 0
        self._links: dict[int, _PeerLink] = {}
        self._link_locks: dict[int, asyncio.Lock] = {}
        # Scheduler randomness is seeded per node so a cluster of
        # processes is as replayable as the simulator (R3).
        self.rng = random.Random((config.seed << 8) ^ config.node_id)
        self.round_no = 0
        self._peer_server: asyncio.base_events.Server | None = None
        self._client_server: asyncio.base_events.Server | None = None
        self._anti_entropy_task: asyncio.Task[object] | None = None
        self._tasks = TaskTracker(name=f"node{config.node_id}")
        self._stopped = asyncio.Event()
        self.peer_port = config.peer_port
        self.client_port = config.client_port

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind both listeners (resolving port 0 to real ports) and, if
        configured, start the anti-entropy scheduler."""
        self._peer_server = await asyncio.start_server(
            self._accept_peer, self.config.host, self.config.peer_port
        )
        self.peer_port = self._peer_server.sockets[0].getsockname()[1]
        self._client_server = await asyncio.start_server(
            self._accept_client, self.config.host, self.config.client_port
        )
        self.client_port = self._client_server.sockets[0].getsockname()[1]
        if self.config.anti_entropy_period > 0:
            self._anti_entropy_task = self._tasks.spawn(
                self._anti_entropy_loop(), name="anti-entropy"
            )
        logger.info(
            "node %d ready: peer port %d, client port %d",
            self.node_id,
            self.peer_port,
            self.client_port,
        )

    async def run_until_shutdown(self) -> None:
        """Serve until a client sends ``shutdown`` (or :meth:`stop`)."""
        # The process's whole purpose is to serve until told otherwise;
        # an unbounded wait on the stop event is the intent, not a hang.
        await self._stopped.wait()  # pragma: blocking lifetime wait for the shutdown signal

    async def stop(self) -> None:
        """Tear down listeners, inbound connections, outbound links, and
        the scheduler."""
        if self._anti_entropy_task is not None:
            await cancel_and_wait(self._anti_entropy_task)
            self._anti_entropy_task = None
        servers = [
            server
            for server in (self._peer_server, self._client_server)
            if server is not None
        ]
        for server in servers:
            server.close()
        for peer_id in sorted(self._links):
            self._drop_link(peer_id)
        # Every inbound connection's handler is a tracked task: cancelled
        # and awaited here, it closes its own writer, so no handler
        # outlives the node to be cancelled by the event loop's teardown.
        await self._tasks.aclose()
        for server in servers:
            await server.wait_closed()
        if self.journal is not None:
            # A clean shutdown folds the WAL into a checkpoint so the
            # next start replays nothing; recovery does not depend on
            # this (a kill skips it and replays the WAL instead).
            self.journal.checkpoint(self.node)
            self.journal.close()
        self._stopped.set()

    # -- peer service (the SendPropagation side) ------------------------------

    def _accept_peer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve a new inbound peer connection on a tracked task (R11),
        which :meth:`stop` cancels and awaits."""
        _cap_recv(writer)
        self._tasks.spawn(self._serve_peer(reader, writer), name="serve-peer")

    async def _serve_peer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one inbound peer connection until it closes.

        The codec lives exactly as long as the connection (see the
        module docstring); a framing error or an illegal message tears
        the connection down, which is also what invalidates the cached
        DBVV on both ends.
        """
        peer_id = -1
        stream = BufferedReader(reader)
        try:
            peer_id, digest = await receive_preamble(stream)
            if not 0 <= peer_id < self.n_nodes or peer_id == self.node_id:
                raise WireFormatError(
                    f"peer handshake announced illegal node id {peer_id}"
                )
            # Answered before the schema check, so the dialer sees the
            # mismatch itself and refuses too.
            await send_preamble(writer, self.node_id, self.schema.digest)
            if digest != self.schema.digest:
                raise WireFormatError(
                    f"peer {peer_id} holds another item schema (digest "
                    f"{digest.hex()}, this node's {self.schema.digest.hex()})"
                )
            codec = WireCodec(self.schema)
            while True:
                frame = await read_frame(stream)
                message = codec.decode(frame)
                if not isinstance(message, PropagationRequest):
                    raise WireFormatError(
                        "peer connection carried a "
                        f"{type(message).__name__}; only "
                        "PropagationRequest is served"
                    )
                checked = validate_propagation_request(message, self.node)
                answer = respond(self.node, checked)
                out = codec.encode(answer)
                self._count_frame(answer, out)
                # The served-session transition is complete *before* the
                # answer write awaits (R10): a status snapshot taken by a
                # concurrent client coroutine never sees the counted
                # frame without the counted session.
                self.sessions_served += 1
                await write_frame(writer, out)
        except ConnectionClosed:
            logger.info("peer %d disconnected", peer_id)
        except (WireFormatError, ValidationError) as exc:
            logger.warning("peer %d connection dropped: %s", peer_id, exc)
        finally:
            writer.close()

    # -- outbound sessions (the pull side) ------------------------------------

    async def sync_with(self, peer_id: int) -> PullOutcome:
        """Run one anti-entropy pull against ``peer_id``.

        At most one session per peer is in flight (per-peer lock), so
        requests and answers strictly alternate on the connection and
        the cached DBVV sees a total order.  A connection that dies
        mid-session is dropped (its cache with it) and the session retried
        on a fresh connection, up to ``reconnect_attempts`` extra
        dials; the retry re-reads the node state, so an answer the peer
        computed for the lost session is never half-applied here.  An
        answer that does not decode or does not validate also costs the
        link, and is raised as the typed error it is — not retried.
        """
        if not 0 <= peer_id < self.n_nodes or peer_id == self.node_id:
            raise NetworkSessionError(f"illegal sync peer {peer_id}")
        lock = self._link_locks.setdefault(peer_id, asyncio.Lock())
        async with lock:
            attempts = self.config.reconnect_attempts + 1
            for attempt in range(attempts):
                if attempt > 0:
                    self.sync_retries += 1
                link = await self._ensure_link(peer_id)
                pull = PullSession(self.node)
                frame = link.codec.encode(pull.request())
                try:
                    self._count_frame_raw("PropagationRequest", frame)
                    await write_frame(link.writer, frame)
                    answer_frame = await read_frame(link.reader)
                except ConnectionClosed:
                    self._drop_link(peer_id)
                    self.reconnects += 1
                    logger.warning(
                        "session with peer %d lost its connection "
                        "(attempt %d/%d)",
                        peer_id,
                        attempt + 1,
                        attempts,
                    )
                    continue
                # The frame came off a socket: nothing it claims is
                # trusted until validated (R13).  This layer checks what
                # only it knows — a legal answer type, claiming the
                # dialled peer — and the session driver deep-checks the
                # body, once, before adopting any of it.
                try:
                    answer = link.codec.decode(answer_frame)
                    answer = validate_session_answer(answer, peer_id)
                    outcome = pull.conclude(answer)
                except (WireFormatError, ValidationError):
                    # A peer whose answer does not decode or does not
                    # validate loses the link: the next pull redials.
                    # The node state is untouched (conclude validates
                    # before it adopts).
                    self._drop_link(peer_id)
                    raise
                if self.journal is not None and isinstance(
                    answer, PropagationReply
                ):
                    # conclude + record + commit run without an await in
                    # between (R12): the journal can never hold an
                    # adoption a concurrent coroutine hasn't seen yet.
                    # A YouAreCurrent changed nothing, nothing to log.
                    # The reply reads no link cache, so the payload just
                    # decoded and validated is the record, as it arrived
                    # (the skip: these bytes are the answer validated above).
                    _length, start = read_uvarint(answer_frame, 0)
                    payload = memoryview(answer_frame)[start:]
                    self.journal.record_accept(payload)  # lint: skip=R13
                    self.journal.commit(self.node)
                return outcome
            raise NetworkSessionError(
                f"session with peer {peer_id} failed after "
                f"{attempts} attempt(s)"
            )

    async def _ensure_link(self, peer_id: int) -> _PeerLink:
        """The live outbound link to ``peer_id``, dialing if needed."""
        link = self._links.get(peer_id)
        if link is not None:
            return link
        address = self.config.address_of(peer_id)
        try:
            raw_reader, writer = await asyncio.open_connection(
                address.host, address.port
            )
        except OSError as exc:
            raise NetworkSessionError(
                f"cannot reach peer {peer_id} at "
                f"{address.host}:{address.port}: {exc}"
            ) from None
        _cap_recv(writer)
        reader = BufferedReader(raw_reader)
        try:
            await send_preamble(writer, self.node_id, self.schema.digest)
            served_by, digest = await receive_preamble(reader)
        except (ConnectionClosed, WireFormatError) as exc:
            writer.close()
            raise NetworkSessionError(
                f"handshake with peer {peer_id} failed: {exc}"
            ) from None
        if served_by != peer_id:
            writer.close()
            raise NetworkSessionError(
                f"dialed peer {peer_id} but node {served_by} answered — "
                "the seed list and the deployment disagree"
            )
        if digest != self.schema.digest:
            writer.close()
            raise NetworkSessionError(
                f"handshake with peer {peer_id} failed: it holds another "
                f"item schema (digest {digest.hex()}, this node's "
                f"{self.schema.digest.hex()})"
            )
        link = _PeerLink(reader, writer, WireCodec(self.schema))
        self._links[peer_id] = link
        return link

    def _drop_link(self, peer_id: int) -> None:
        """Close the outbound link; its codec (and cache) die with it."""
        link = self._links.pop(peer_id, None)
        if link is not None:
            link.writer.close()

    # -- accounting -----------------------------------------------------------

    def _count_frame(self, message: object, frame: bytes) -> None:
        self._count_frame_raw(type(message).__name__, frame)

    def _count_frame_raw(self, kind: str, frame: bytes) -> None:
        self.census[kind] = self.census.get(kind, 0) + 1
        self.frames_sent += 1
        self.bytes_sent += len(frame)

    # -- anti-entropy scheduler -----------------------------------------------

    async def _anti_entropy_loop(self) -> None:
        """Pull from a random other peer every period; best-effort
        (an unreachable peer is this round's dead dial-up number)."""
        period = self.config.anti_entropy_period
        while True:
            await asyncio.sleep(period)
            self.round_no += 1
            peer = self.rng.randrange(self.n_nodes - 1)
            if peer >= self.node_id:
                peer += 1
            try:
                outcome = await self.sync_with(peer)
            except (NetworkSessionError, ReplicationError) as exc:
                logger.warning(
                    "scheduled session with peer %d failed: %s", peer, exc
                )
                continue
            logger.info(
                "round %d: pulled from %d (%s)",
                self.round_no,
                peer,
                "identical"
                if outcome.identical
                else f"{len(outcome.adopted)} item(s)",
            )

    # -- client API -----------------------------------------------------------

    def _accept_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve a new client connection on a tracked task, like
        :meth:`_accept_peer`."""
        _cap_recv(writer)
        self._tasks.spawn(self._serve_client(reader, writer), name="serve-client")

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection: length-prefixed JSON requests.

        What has already arrived is served, in order, before the task
        waits again; the replies are held and written in one transport
        write once no complete request is left (a batch is at most what
        one wake-up delivered).  A journaled ``put``'s ack is held only
        once fsynced; if a commit fails, the held acks go out and the
        connection ends.  An op that waits (``sync``, ``status``'s
        stream) is served alone — held replies are written before it,
        its own right after it.  ``status`` is written from a
        :class:`StatusSnapshot` a chunk at a time, draining in between,
        so a put on another connection may land mid-stream: the reply
        is the state at the snapshot, and no copy of the store is made.
        """
        stream = BufferedReader(reader)
        held: list[bytes] = []
        held_bytes = 0
        try:
            while True:
                blob = await read_blob(stream)
                alone = False
                reply = None
                try:
                    request = json.loads(blob)
                    if not isinstance(request, dict):
                        raise TypeError("request is not a JSON object")
                    op = request.get("op")
                    alone = op in ("sync", "status")
                    if alone and held:
                        await write_blob(writer, *held)
                        held.clear()
                        held_bytes = 0
                    if op == "status":
                        status = self._status()
                        if status.length <= MAX_FRAME_BYTES:
                            await write_blob_stream(
                                writer, status.length, status.chunks()
                            )
                            continue
                        response = {
                            "ok": False,
                            "error": f"status reply of {status.length} bytes "
                            f"exceeds the {MAX_FRAME_BYTES}-byte frame cap",
                        }
                    else:
                        response = await self._handle_client_op(request)
                    # A ``put``/``get`` that did not raise succeeded, and
                    # its reply has one shape (see ``_handle_client_op``).
                    if op == "put":
                        reply = _PUT_REPLY
                    elif op == "get":
                        reply = (_GET_HEAD + response["value"] + _GET_TAIL).encode("utf-8")
                except ConnectionClosed:
                    raise  # the write of the held replies, not the op
                except OSError:
                    # A failed commit: the held acks are of synced puts.
                    with contextlib.suppress(ConnectionClosed):
                        await write_blob(writer, *held)
                    raise
                except ReplicationError as exc:
                    response = {"ok": False, "error": str(exc)}
                except (ValueError, KeyError, TypeError) as exc:
                    response = {"ok": False, "error": f"bad request: {exc}"}
                if reply is None:
                    reply = json.dumps(response).encode("utf-8")
                held.append(reply)
                held_bytes += len(reply)
                bye = response.get("bye")
                if not (alone or bye or held_bytes >= _HELD_CAP) and stream.has_blob():
                    continue
                await write_blob(writer, *held)
                held.clear()
                held_bytes = 0
                if bye:
                    break
        except (ConnectionClosed, WireFormatError) as exc:
            # Clients may hang up whenever they like, but a malformed
            # blob is still worth a trace (R15): a probing client must
            # be visible in the logs, not indistinguishable from silence.
            logger.debug("client connection ended: %s", exc)
        finally:
            writer.close()

    async def _handle_client_op(
        self, request: dict[str, Any]
    ) -> dict[str, Any]:
        # ``_serve_client`` writes a successful ``put``/``get`` without
        # ``json.dumps``: their two result shapes change there too.  It
        # serves ``status`` itself, as a stream (see ``_status``).
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "node": self.node_id}
        if op == "put":
            # Client JSON is as untrusted as a wire frame (R13): the
            # item name and value pass validators before the state
            # machine or the journal sees them.
            item = validate_item_name(request["item"])
            value = validate_value(bytes.fromhex(request["value"]))
            self.node.update(item, Put(value))
            if self.journal is not None:
                # Journaled after the node accepted it; the "ok" reply
                # is written only after the group commit returns, so an
                # acknowledged put survives a kill -9.
                self.journal.record_update(item, Put(value))
                self.journal.commit(self.node)
            return {"ok": True}
        if op == "get":
            item = validate_item_name(request["item"])
            return {"ok": True, "value": self.node.read(item).hex()}
        if op == "sync":
            peer = validate_node_id(request["peer"], self.n_nodes)
            outcome = await self.sync_with(peer)
            return {
                "ok": True,
                "identical": outcome.identical,
                "adopted": list(outcome.adopted),
                "conflicts": outcome.conflicts,
            }
        if op == "shutdown":
            # Reply first, then unwind: the caller's socket sees the
            # acknowledgement before the listener goes away.  The stop
            # task is tracked (R11) so a failing teardown is logged
            # instead of vanishing with the weakly-referenced task.
            asyncio.get_running_loop().call_soon(
                lambda: self._tasks.spawn(self.stop(), name="stop")
            )
            return {"ok": True, "bye": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _status(self) -> StatusSnapshot:
        """Converged-state snapshot for the parity harness: regular
        store contents, per-item IVVs, the DBVV, and traffic totals —
        taken with no await, so it is one state of the node."""
        rows = [
            (entry.name, entry.value, entry.ivv.as_tuple())
            for entry in self.node.store
        ]
        fields: dict[str, Any] = {
            "dbvv": list(self.node.dbvv.as_tuple()),
            "census": dict(self.census),
            "frames_sent": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "reconnects": self.reconnects,
            "sync_retries": self.sync_retries,
            "sessions_served": self.sessions_served,
            "conflicts": self.node.conflicts.count,
        }
        if self.journal is not None:
            fields["durable"] = {
                "checkpoints": self.journal.checkpoints,
                "records_replayed": self.journal.records_replayed,
                "records_skipped": self.journal.records_skipped,
                "wal_records": self.journal.wal.records_appended,
                "wal_bytes": self.journal.wal.bytes_appended,
                "fsyncs": self.journal.wal.fsyncs,
                "wal_bytes_since_checkpoint": self.journal.wal_bytes_since_checkpoint,
                "checkpoint_bytes": self.journal.checkpoint_bytes,
            }
        return StatusSnapshot(self.node_id, rows, fields)
