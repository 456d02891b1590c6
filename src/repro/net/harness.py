"""Differential parity: the simulator versus a real localhost cluster.

The strongest check the networked mode can offer is that it is *the
same protocol*: a seeded workload run through
``ClusterSimulation`` and replayed against a multi-process
localhost cluster must end in identical state.  This module provides
the three pieces:

1. :func:`record_script` — run the simulation, recording every user
   update and every anti-entropy session (via the simulator's
   ``session_observer`` hook) as one ordered script;
2. :class:`LocalCluster` — spawn/reap one ``python -m repro.net``
   process per replica (ephemeral ports, per-process log files);
3. :func:`run_parity` — replay the script through the cluster's client
   API and compare, node by node: regular store contents, per-item
   IVVs, the DBVV, conflict counts, and (when no session needed a
   reconnect) the frame-type traffic census.

Replay is deterministic because sessions are driven *explicitly*
(client ``sync`` commands in the recorded order) rather than by each
process's own timer — the network contributes latency but no choices,
so the replayed cluster walks the exact state sequence the simulator
walked.  Retries are the one sanctioned divergence: a lost connection
re-sends a request frame, which is why the census comparison is gated
on zero reconnects.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

from repro.cluster.simulation import ClusterSimulation
from repro.core.protocol import DBVVProtocolNode
from repro.errors import NetworkSessionError, SimulationError
from repro.interfaces import SyncStats
from repro.net.client import NodeClient
from repro.substrate.operations import Put

__all__ = [
    "ScriptEvent",
    "record_script",
    "LocalCluster",
    "ParityReport",
    "run_parity",
]

#: One replayable event: ``("put", node, item, value)`` or
#: ``("sync", initiator, peer)``.
ScriptEvent = tuple[Any, ...]


def record_script(
    seed: int,
    n_nodes: int,
    items: tuple[str, ...],
    rounds: int,
    updates_per_round: int = 2,
    settle_full_mesh_rounds: int = 3,
) -> tuple[list[ScriptEvent], ClusterSimulation]:
    """Run the reference simulation; returns (script, finished sim).

    The script interleaves updates and sessions in execution order.
    ``settle_full_mesh_rounds`` full-mesh rounds run after the random
    schedule so the reference state is *converged* — parity against a
    converged cluster is the acceptance bar, and full-mesh rounds give
    convergence deterministically instead of hoping the random
    schedule got there.
    """
    script: list[ScriptEvent] = []

    def observe(initiator: int, peer: int, stats: SyncStats) -> None:
        if stats.failed:
            raise SimulationError(
                "parity scripts must be failure-free: session "
                f"{initiator}->{peer} failed"
            )
        script.append(("sync", initiator, peer))

    sim = ClusterSimulation(
        factory=lambda node_id, counters: DBVVProtocolNode(
            node_id, n_nodes, list(items), counters
        ),
        n_nodes=n_nodes,
        items=items,
        sanitize=True,
        session_observer=observe,
        seed=seed,
    )
    workload_rng = random.Random((seed << 16) ^ 0x5EED)
    for _ in range(rounds):
        for _ in range(updates_per_round):
            node_id = workload_rng.randrange(n_nodes)
            item = items[workload_rng.randrange(len(items))]
            value = workload_rng.randbytes(8)
            sim.apply_update(node_id, item, Put(value))
            script.append(("put", node_id, item, value))
        sim.run_round()
    for _ in range(settle_full_mesh_rounds):
        sim.run_full_mesh_round()
    return script, sim


def _free_ports(count: int) -> list[int]:
    """``count`` distinct currently-free localhost ports (bind-0 trick;
    all sockets stay open until every port is collected so the OS
    cannot hand the same port out twice)."""
    import socket

    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class LocalCluster:
    """A multi-process localhost cluster, spawned and reaped.

    Every replica runs ``python -m repro.net`` with its stdout/stderr
    captured to ``<log_dir>/node-<id>.log``; the logs survive the
    cluster (the CI parity job uploads them on failure).  Use as a
    context manager, or call :meth:`start`/:meth:`stop` directly.
    """

    def __init__(
        self,
        n_nodes: int,
        items: tuple[str, ...],
        log_dir: str | Path,
        seed: int = 0,
        anti_entropy_period: float = 0.0,
        data_dir: str | Path | None = None,
    ) -> None:
        if n_nodes < 2:
            raise SimulationError("a cluster needs at least 2 nodes")
        self.n_nodes = n_nodes
        self.items = items
        self.seed = seed
        self.anti_entropy_period = anti_entropy_period
        self.log_dir = Path(log_dir)
        #: With a data directory, every node runs durably (journal under
        #: ``<data_dir>/node-<id>``) and :meth:`restart` recovers a
        #: killed node from its on-disk state.
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.processes: list[subprocess.Popen[bytes]] = []
        self.clients: list[NodeClient | None] = [None] * n_nodes
        self.peer_ports: list[int] = []
        self.client_ports: list[int] = []
        self._log_files: list[TextIO] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self, ready_timeout: float = 20.0) -> None:
        """Spawn all processes and block until every node answers ping."""
        self.log_dir.mkdir(parents=True, exist_ok=True)
        ports = _free_ports(2 * self.n_nodes)
        self.peer_ports = ports[: self.n_nodes]
        self.client_ports = ports[self.n_nodes :]
        try:
            for node_id in range(self.n_nodes):
                self.processes.append(self._spawn(node_id))
            self._await_ready(ready_timeout)
        except BaseException:
            self.stop()
            raise

    def _spawn(self, node_id: int) -> subprocess.Popen[bytes]:
        """Launch one replica process on its allocated ports.

        The log file is opened fresh (truncating any previous run's
        output) so readiness watching never matches a stale READY line
        from before a restart.
        """
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not existing else src_dir + os.pathsep + existing
        )
        peers = [
            f"{k}@127.0.0.1:{self.peer_ports[k]}"
            for k in range(self.n_nodes)
            if k != node_id
        ]
        log_file = open(self.log_dir / f"node-{node_id}.log", "w")
        self._log_files.append(log_file)
        command = [
            sys.executable,
            "-m",
            "repro.net",
            "--node-id",
            str(node_id),
            "--items",
            ",".join(self.items),
            "--peer-port",
            str(self.peer_ports[node_id]),
            "--client-port",
            str(self.client_ports[node_id]),
            "--peers",
            *peers,
            "--seed",
            str(self.seed),
            "--period",
            str(self.anti_entropy_period),
        ]
        if self.data_dir is not None:
            command += ["--data-dir", str(self.data_dir / f"node-{node_id}")]
        return subprocess.Popen(
            command,
            stdout=log_file,
            stderr=subprocess.STDOUT,
            env=env,
        )

    def kill(self, node_id: int) -> None:
        """SIGKILL one node — a crash, not a shutdown: no checkpoint, no
        clean close; recovery must work from the WAL alone."""
        client = self.clients[node_id]
        if client is not None:
            client.close()
            self.clients[node_id] = None
        process = self.processes[node_id]
        process.kill()
        process.wait(timeout=10)

    def restart(self, node_id: int, ready_timeout: float = 20.0) -> None:
        """Respawn a killed node on its original ports and await it.

        With a ``data_dir`` the node comes back from its durable state;
        without one it comes back empty (and catches up epidemically).
        """
        self.processes[node_id] = self._spawn(node_id)
        deadline = time.monotonic() + ready_timeout  # lint: skip=R3
        self._await_ready_line(node_id, deadline)
        self.client(node_id).ping()

    def _await_ready(self, timeout: float) -> None:
        """Block until every node printed ``READY`` and answers a ping.

        A node prints its ``READY`` line only after both listeners are
        bound, so tailing the log is an edge-triggered readiness signal
        — no connect-and-pray attempt counting.  One wall-clock deadline
        covers the whole cluster; this is subprocess startup, outside
        the deterministic protocol core, hence the R3 skips.
        """
        deadline = time.monotonic() + timeout  # lint: skip=R3
        for node_id in range(self.n_nodes):
            self._await_ready_line(node_id, deadline)
            try:
                self.client(node_id).ping()
            except OSError as exc:
                self.clients[node_id] = None
                raise NetworkSessionError(
                    f"node {node_id} printed READY but does not answer "
                    f"its client port: {exc}"
                ) from None

    def _await_ready_line(self, node_id: int, deadline: float) -> None:
        """Watch one node's log for its ``READY`` line, or die trying."""
        log_path = self.log_dir / f"node-{node_id}.log"
        marker = f"READY node={node_id} "
        pause = 0.005
        while True:
            process = self.processes[node_id]
            exited = process.poll() is not None
            # Read *after* the liveness check: a node that printed READY
            # and then crashed still counts as having become ready once.
            if log_path.exists() and marker in log_path.read_text(
                errors="replace"
            ):
                return
            if exited:
                raise NetworkSessionError(
                    f"node {node_id} exited with status "
                    f"{process.returncode} before becoming ready "
                    f"(see {log_path})"
                )
            remaining = deadline - time.monotonic()  # lint: skip=R3
            if remaining <= 0:
                raise NetworkSessionError(
                    f"node {node_id} never printed READY within the "
                    f"startup deadline (see {log_path})"
                )
            time.sleep(min(pause, remaining))
            pause = min(pause * 2, 0.1)

    def client(self, node_id: int) -> NodeClient:
        """The (cached) client connection to ``node_id``."""
        cached = self.clients[node_id]
        if cached is None:
            cached = NodeClient("127.0.0.1", self.client_ports[node_id])
            self.clients[node_id] = cached
        return cached

    def stop(self) -> None:
        """Shut every node down, escalating to kill; close the logs."""
        for node_id, client in enumerate(self.clients):
            if client is None:
                continue
            try:
                client.shutdown()
            except (NetworkSessionError, OSError):
                pass
            client.close()
            self.clients[node_id] = None
        for process in self.processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        self.processes = []
        for log_file in self._log_files:
            log_file.close()
        self._log_files = []

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def replay_script(cluster: LocalCluster, script: list[ScriptEvent]) -> None:
    """Drive the recorded workload through the cluster's client API."""
    for event in script:
        if event[0] == "put":
            _, node_id, item, value = event
            cluster.client(node_id).put(item, value)
        elif event[0] == "sync":
            _, initiator, peer = event
            cluster.client(initiator).sync(peer)
        else:
            raise SimulationError(f"unknown script event {event[0]!r}")


@dataclass
class ParityReport:
    """Outcome of one differential parity run."""

    seed: int
    mismatches: list[str] = field(default_factory=list)
    sim_census: dict[str, int] = field(default_factory=dict)
    net_census: dict[str, int] = field(default_factory=dict)
    reconnects: int = 0
    sync_retries: int = 0
    sessions: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        verdict = "PARITY" if self.ok else "DIVERGED"
        return (
            f"{verdict} seed={self.seed} sessions={self.sessions} "
            f"census={self.net_census} reconnects={self.reconnects}"
            + "".join(f"\n  - {line}" for line in self.mismatches)
        )


def run_parity(
    seed: int,
    n_nodes: int = 4,
    items: tuple[str, ...] = ("alpha", "beta", "gamma"),
    rounds: int = 6,
    updates_per_round: int = 2,
    log_dir: str | Path | None = None,
) -> ParityReport:
    """One full differential run; the report lists every divergence.

    The comparison is exact on store contents, per-item IVVs, DBVVs,
    and conflict counts.  The frame-type census must match whenever no
    session needed a reconnect (a reconnect legitimately re-sends a
    request frame, so censuses may then differ by the retried frames —
    the report records the retry counts instead of failing).
    """
    script, sim = record_script(
        seed, n_nodes, items, rounds, updates_per_round
    )
    if log_dir is None:
        log_dir = Path(f"net-parity-logs/seed-{seed}")
    report = ParityReport(
        seed=seed,
        sessions=sum(1 for event in script if event[0] == "sync"),
        sim_census=dict(sim.network.frame_census),
    )
    with LocalCluster(n_nodes, items, log_dir, seed=seed) as cluster:
        replay_script(cluster, script)
        statuses = [cluster.client(k).status() for k in range(n_nodes)]
    for node_id, status in enumerate(statuses):
        sim_node = sim.nodes[node_id].node
        sim_store = {
            entry.name: entry.value.hex() for entry in sim_node.store
        }
        sim_ivvs = {
            entry.name: list(entry.ivv.as_tuple())
            for entry in sim_node.store
        }
        if status["store"] != sim_store:
            report.mismatches.append(
                f"node {node_id} store: net={status['store']} "
                f"sim={sim_store}"
            )
        if status["ivvs"] != sim_ivvs:
            report.mismatches.append(
                f"node {node_id} ivvs: net={status['ivvs']} sim={sim_ivvs}"
            )
        if status["dbvv"] != list(sim_node.dbvv.as_tuple()):
            report.mismatches.append(
                f"node {node_id} dbvv: net={status['dbvv']} "
                f"sim={list(sim_node.dbvv.as_tuple())}"
            )
        if status["conflicts"] != sim_node.conflicts.count:
            report.mismatches.append(
                f"node {node_id} conflicts: net={status['conflicts']} "
                f"sim={sim_node.conflicts.count}"
            )
        report.reconnects += status["reconnects"]
        report.sync_retries += status["sync_retries"]
        for kind, count in status["census"].items():
            report.net_census[kind] = (
                report.net_census.get(kind, 0) + count
            )
    if report.reconnects == 0 and report.net_census != report.sim_census:
        report.mismatches.append(
            f"frame census: net={report.net_census} "
            f"sim={report.sim_census}"
        )
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI: ``python -m repro.net.harness --seeds 1,2,3``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.net.harness",
        description="Differential parity: simulator vs localhost cluster.",
    )
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--log-dir", default="net-parity-logs")
    args = parser.parse_args(argv)
    failures = 0
    for seed_text in args.seeds.split(","):
        seed = int(seed_text)
        report = run_parity(
            seed,
            n_nodes=args.nodes,
            rounds=args.rounds,
            log_dir=Path(args.log_dir) / f"seed-{seed}",
        )
        print(report.summary())
        if not report.ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
