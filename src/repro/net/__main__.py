"""``python -m repro.net`` — run one networked epidemic replica.

Example (a 3-node localhost cluster, one shell each)::

    python -m repro.net --node-id 0 --items a,b,c --peer-port 9000 \\
        --client-port 9100 --peers 1@127.0.0.1:9001 2@127.0.0.1:9002 \\
        --period 0.05 --seed 7

The process prints one ``READY ...`` line to stdout once both
listeners are bound (ports resolved if 0 was given), then serves until
a client sends ``shutdown`` or the process is signalled.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import sys

from repro.net.config import NodeConfig, parse_peers
from repro.net.node import NetNode

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="Run one networked epidemic replica.",
    )
    parser.add_argument("--node-id", type=int, required=True)
    parser.add_argument(
        "--items",
        required=True,
        help="comma-separated database schema, e.g. a,b,c",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--peer-port",
        type=int,
        default=0,
        help="anti-entropy listener port (0 = ephemeral)",
    )
    parser.add_argument(
        "--client-port",
        type=int,
        default=0,
        help="client API listener port (0 = ephemeral)",
    )
    parser.add_argument(
        "--peers",
        nargs="*",
        default=[],
        metavar="ID@HOST:PORT",
        help="every other replica's peer listener",
    )
    parser.add_argument(
        "--period",
        type=float,
        default=0.0,
        help="anti-entropy period in seconds (0 disables the scheduler)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--data-dir",
        default=None,
        help="durable journal directory (checkpoint + WAL); the node "
        "recovers from it on restart.  Omit to run in-memory only.",
    )
    return parser


def build_config(argv: list[str]) -> NodeConfig:
    args = _build_parser().parse_args(argv)
    items = tuple(name for name in args.items.split(",") if name)
    return NodeConfig(
        node_id=args.node_id,
        items=items,
        host=args.host,
        peer_port=args.peer_port,
        client_port=args.client_port,
        peers=parse_peers(args.peers),
        anti_entropy_period=args.period,
        seed=args.seed,
        data_dir=args.data_dir,
    )


async def _amain(config: NodeConfig) -> None:
    node = NetNode(config)
    await node.start()
    print(
        f"READY node={node.node_id} peer_port={node.peer_port} "
        f"client_port={node.client_port}",
        flush=True,
    )
    await node.run_until_shutdown()


def main(argv: list[str] | None = None) -> int:
    config = build_config(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        asyncio.run(_amain(config))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
