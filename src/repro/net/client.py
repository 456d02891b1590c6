"""Blocking client for a :class:`~repro.net.node.NetNode`'s JSON API.

The node's client listener speaks length-prefixed JSON (see
:mod:`repro.net.framing`); this client wraps it in plain blocking
sockets so tests and the parity harness need no event loop of their
own.  One client holds one connection; requests and responses strictly
alternate.
"""

from __future__ import annotations

import json
import socket
from typing import Any

from repro.errors import NetworkSessionError, WireFormatError
from repro.net.framing import MAX_FRAME_BYTES
from repro.wire.varint import MAX_VARINT_BYTES, write_uvarint

__all__ = ["NodeClient"]


class NodeClient:
    """One blocking connection to one node's client port."""

    def __init__(
        self, host: str, port: int, timeout: float | None = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # One buffer: a reply is one ``recv``, not one per prefix byte.
        self._replies = self._sock.makefile("rb")

    # -- plumbing -------------------------------------------------------------

    def _read_exact(self, n: int) -> bytes:
        data = self._replies.read(n)
        if len(data) < n:
            raise NetworkSessionError(
                f"node at {self.host}:{self.port} closed the connection"
            )
        return data

    def _read_uvarint(self) -> int:
        value = 0
        shift = 0
        for _ in range(MAX_VARINT_BYTES):
            byte = self._read_exact(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
        raise WireFormatError("unterminated varint from node")

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One round trip; raises on transport failure or error reply."""
        blob = json.dumps(payload).encode("utf-8")
        out = bytearray()
        write_uvarint(out, len(blob))
        out += blob
        self._sock.sendall(out)
        length = self._read_uvarint()
        if length > MAX_FRAME_BYTES:
            raise WireFormatError(
                f"reply length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
            )
        response: dict[str, Any] = json.loads(self._read_exact(length))
        if not response.get("ok"):
            raise NetworkSessionError(
                f"node at {self.host}:{self.port} rejected "
                f"{payload.get('op')!r}: {response.get('error')}"
            )
        return response

    def close(self) -> None:
        self._replies.close()
        self._sock.close()

    def __enter__(self) -> "NodeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- operations -----------------------------------------------------------

    def ping(self) -> int:
        """The node's id — doubles as the readiness probe."""
        return int(self.request({"op": "ping"})["node"])

    def put(self, item: str, value: bytes) -> None:
        self.request({"op": "put", "item": item, "value": value.hex()})

    def get(self, item: str) -> bytes:
        return bytes.fromhex(self.request({"op": "get", "item": item})["value"])

    def sync(self, peer: int) -> dict[str, Any]:
        """Run one pull session against ``peer`` on the node's behalf."""
        return self.request({"op": "sync", "peer": peer})

    def status(self) -> dict[str, Any]:
        return self.request({"op": "status"})

    def shutdown(self) -> None:
        self.request({"op": "shutdown"})
