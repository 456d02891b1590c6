"""The load generator: saturating, timer-polled, pre-encoded (M3).

Requests are encoded before the clock starts.  Sockets are non-blocking
and the generator sleeps on a *timer*, never on a socket: every 2 ms it
drains whatever replies have arrived (skipping length prefixes only —
replies are JSON-verified after the clock stops) and tops each
connection's window up to 256 requests or 256 KiB in flight, whichever
is smaller.  A node's reply write therefore never has to wake a client
sleeping in ``select()`` on another vCPU, which on this class of VM is
four fifths of what a ping-pong client measures as "the node's CPU"
(111–148 us per in-memory put behind the blocking client, 22–30 us here).

This is a closed loop with a window: at most ``WINDOW_REQUESTS`` per
connection are outstanding, so a slow node receives less load and no
queue grows without bound.  One process, one thread.
"""

from __future__ import annotations

import json
import socket
import time
from collections import deque
from typing import Any, Callable, Iterable

from repro.wire.varint import write_uvarint

__all__ = ["Connection", "encode_request", "pump", "WINDOW_REQUESTS", "WINDOW_BYTES"]

WINDOW_REQUESTS = 256
WINDOW_BYTES = 256 * 1024
POLL_S = 0.002
_STALL_S = 60.0


def encode_request(payload: dict[str, Any]) -> bytes:
    """One client-API request exactly as ``NodeClient`` would send it."""
    blob = json.dumps(payload).encode("utf-8")
    framed = bytearray()
    write_uvarint(framed, len(blob))
    framed += blob
    return bytes(framed)


class Connection:
    """One non-blocking client connection with a send window."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.queue: deque[bytes] = deque()
        self.replies: list[bytes] = []
        self._in_flight: deque[int] = deque()
        self._in_flight_bytes = 0
        self._tx = bytearray()
        self._rx = bytearray()

    def submit(self, requests: Iterable[bytes]) -> None:
        self.queue.extend(requests)

    @property
    def idle(self) -> bool:
        return not self.queue and not self._in_flight and not self._tx

    def take_replies(self) -> list[bytes]:
        replies, self.replies = self.replies, []
        return replies

    def close(self) -> None:
        self.sock.close()

    # -- one poll -------------------------------------------------------------

    def drain(self) -> int:
        """Receive what is there; returns how many replies completed."""
        while True:
            try:
                chunk = self.sock.recv(1 << 18)
            except BlockingIOError:
                break
            if not chunk:
                raise ConnectionError("node closed a client connection")
            self._rx += chunk
        rx = self._rx
        pos = 0
        done = 0
        end = len(rx)
        while pos < end:
            length = 0
            shift = 0
            cursor = pos
            while True:
                if cursor >= end:
                    length = -1
                    break
                byte = rx[cursor]
                cursor += 1
                length |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
            if length < 0 or cursor + length > end:
                break
            self.replies.append(bytes(rx[cursor : cursor + length]))
            self._in_flight_bytes -= self._in_flight.popleft()
            pos = cursor + length
            done += 1
        if pos:
            del rx[:pos]
        return done

    def top_up(self) -> None:
        while (
            self.queue
            and len(self._in_flight) < WINDOW_REQUESTS
            and self._in_flight_bytes < WINDOW_BYTES
        ):
            request = self.queue.popleft()
            self._tx += request
            self._in_flight.append(len(request))
            self._in_flight_bytes += len(request)
        while self._tx:
            try:
                sent = self.sock.send(self._tx)
            except BlockingIOError:
                return
            del self._tx[:sent]


def pump(
    connections: list[Connection],
    on_progress: Callable[[Connection, int], None] | None = None,
) -> None:
    """Run every connection's queue dry.

    ``on_progress(connection, n)`` is called when ``n`` more replies have
    arrived on a connection; it may ``submit`` to any connection (this is
    how the mixed phase issues one sync per 64 completed client ops).
    """
    last_progress = time.monotonic()
    while True:
        progressed = False
        for connection in connections:
            done = connection.drain()
            if done:
                progressed = True
                if on_progress is not None:
                    on_progress(connection, done)
        for connection in connections:
            connection.top_up()
        if all(connection.idle for connection in connections):
            return
        now = time.monotonic()
        if progressed:
            last_progress = now
        elif now - last_progress > _STALL_S:
            raise TimeoutError("no reply from the cluster for 60 s")
        time.sleep(POLL_S)
