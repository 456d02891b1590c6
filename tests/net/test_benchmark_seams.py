"""The names ``benchmarks/net`` reaches into ``src/`` for, checked in tier-1.

The benchmark measures the stock program from outside, but its layer run
(``--trace 1``) swaps module-level names of ``repro.net.node`` and
``repro.durable.journal`` for recording stand-ins, and its control port
uses the client framing on a bare ``StreamReader``.  A PR that renames or
re-types one of these breaks the layer run, not the test suite — unless
this file notices first (see "What ``benchmarks/net`` calls and patches in
``src/``" in ``docs/DEVELOPING.md``).
"""

import asyncio
import importlib

import pytest

from benchmarks.net import trace


@pytest.mark.parametrize("name", [*trace._NODE_NAMES, "json"])
def test_the_traced_names_are_attributes_of_the_node_module(name):
    assert hasattr(importlib.import_module("repro.net.node"), name)


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.durable.journal", "WriteAheadLog"),
        ("repro.durable.journal", "load_node"),
        ("repro.net.harness", "LocalCluster"),
        ("repro.net.harness", "_free_ports"),
        ("repro.net.__main__", "build_config"),
        ("repro.net.client", "NodeClient"),
        ("repro.net.node", "NetNode"),
        ("repro.net.framing", "ConnectionClosed"),
        ("repro.net.framing", "read_blob"),
        ("repro.net.framing", "write_blob"),
        ("repro.wire.varint", "write_uvarint"),
        ("repro.errors", "NetworkSessionError"),
    ],
)
def test_what_the_benchmark_imports_is_there(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_the_node_awaits_the_framing_functions_it_is_traced_through():
    """The recorder wraps these four as ``await name(...)`` calls."""
    node = importlib.import_module("repro.net.node")
    for name in ("read_blob", "write_blob", "read_frame", "write_frame"):
        assert asyncio.iscoroutinefunction(getattr(node, name)), name


def test_blobs_round_trip_over_bare_streams():
    """``tracehost`` serves its control port with ``read_blob(reader)`` /
    ``write_blob(writer, payload)`` on what ``start_server`` hands out."""
    from repro.net.framing import read_blob, write_blob

    async def run():
        async def echo(reader, writer):
            await write_blob(writer, (await read_blob(reader)).upper())
            writer.close()

        server = await asyncio.start_server(echo, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            assert isinstance(reader, asyncio.StreamReader)
            await write_blob(writer, b'{"op": "ping"}')
            return await read_blob(reader)
        finally:
            writer.close()
            server.close()
            await server.wait_closed()

    assert asyncio.run(run()) == b'{"OP": "PING"}'
