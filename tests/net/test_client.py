"""NodeClient against a stub server: what the blocking client does with
bytes a healthy node would never send."""

import socket
import threading

import pytest

from repro.errors import WireFormatError
from repro.net.client import NodeClient
from repro.net.framing import MAX_FRAME_BYTES
from repro.wire.varint import write_uvarint


def test_oversized_reply_length_is_rejected_before_reading():
    """A reply announcing more than the frame cap is a typed error; the
    client never sizes a read from the forged prefix."""
    announced = bytearray()
    write_uvarint(announced, MAX_FRAME_BYTES + 1)

    def serve(listener):
        conn, _ = listener.accept()
        with conn:
            conn.recv(4096)  # the request; its content is irrelevant
            conn.sendall(announced)
            conn.recv(1)  # hold the socket open until the client hangs up

    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = threading.Thread(target=serve, args=(listener,), daemon=True)
        server.start()
        port = listener.getsockname()[1]
        with NodeClient("127.0.0.1", port, timeout=5.0) as client:
            with pytest.raises(WireFormatError, match="cap"):
                client.ping()
        server.join(timeout=5.0)
        assert not server.is_alive()
