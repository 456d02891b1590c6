"""``python -m benchmarks.net.tracehost`` — one ``NetNode`` with spans.

Takes the command line of ``python -m repro.net`` (parsed by its own
``build_config``) plus ``--control-port`` and ``--trace-from-start``,
starts the node through the public ``NetNode(config).start()``, prints the
same ``READY`` line, and serves until a client sends ``shutdown``.

The control port speaks the client API's length-prefixed JSON:

* ``{"op": "ping"}``
* ``{"op": "trace", "on": bool}`` — turn the recorder on or off;
* ``{"op": "phase", "name": str}`` — label the spans that follow and mark
  the loop thread's CPU clock;
* ``{"op": "dump", "path": str}`` — write spans and marks as JSON.

``--trace-from-start 1`` records from the first import, which is how the
recovery inside ``NetNode.__init__`` (checkpoint load, WAL scan, replay)
gets its spans.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any

from benchmarks.net.trace import Recorder, install


async def _serve_control(
    recorder: Recorder, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    from repro.net.framing import ConnectionClosed, read_blob, write_blob

    try:
        while True:
            request = json.loads(await read_blob(reader))
            response: dict[str, Any] = {"ok": True}
            op = request.get("op")
            if op == "ping":
                response["node"] = -1
            elif op == "trace":
                recorder.set_enabled(bool(request["on"]))
            elif op == "phase":
                recorder.set_phase(str(request["name"]))
            elif op == "dump":
                response["spans"] = recorder.dump(str(request["path"]))
            else:
                response = {"ok": False, "error": f"unknown control op {op!r}"}
            await write_blob(writer, json.dumps(response).encode("utf-8"))
    except ConnectionClosed:
        pass
    finally:
        writer.close()


async def _amain(recorder: Recorder, node_argv: list[str], control_port: int) -> None:
    with recorder.root("recover.import"):
        from repro.net.__main__ import build_config
        from repro.net.node import NetNode
    install(recorder)
    with recorder.root("recover.construct"):
        node = NetNode(build_config(node_argv))
    control = await asyncio.start_server(
        lambda r, w: _serve_control(recorder, r, w), "127.0.0.1", control_port
    )
    await node.start()
    print(
        f"READY node={node.node_id} peer_port={node.peer_port} "
        f"client_port={node.client_port}",
        flush=True,
    )
    try:
        await node.run_until_shutdown()
    finally:
        control.close()
        await control.wait_closed()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.net.tracehost")
    parser.add_argument("--control-port", type=int, required=True)
    parser.add_argument("--trace-from-start", type=int, choices=(0, 1), default=0)
    args, node_argv = parser.parse_known_args(argv)
    recorder = Recorder(enabled=bool(args.trace_from_start))
    asyncio.run(_amain(recorder, node_argv, args.control_port))
    return 0


if __name__ == "__main__":
    sys.exit(main())
