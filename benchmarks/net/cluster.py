"""The benchmark's cluster: stock ``LocalCluster`` processes, pinned.

Two differences from the parity harness's cluster, both about *timing*
and neither about behaviour:

* readiness is polled every 2 ms — the stock exponential back-off
  (5 ms doubling to 100 ms) quantises start-up and restart time into
  100 ms steps (observed ``setup_s`` 0.46 / 0.57 / 0.67 / 0.78 s);
* every spawned node is pinned to its CPU at once (M1), so a restarted
  node lands where its predecessor ran and where a speedometer watches.

``TracedCluster`` spawns ``benchmarks.net.tracehost`` instead of
``repro.net``: the same ``NetNode`` behind the same command line, plus
span recorders and a control port.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import NetworkSessionError
from repro.net.client import NodeClient
from repro.net.harness import LocalCluster, _free_ports

__all__ = ["BenchCluster", "TracedCluster"]

_POLL_S = 0.002


class BenchCluster(LocalCluster):
    """``LocalCluster`` with a fixed 2 ms readiness poll and pinned nodes."""

    def __init__(self, *args: object, node_cpus: list[int], **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        #: From ``procs.cpu_plan``, taken before the harness pinned itself.
        self.node_cpus = node_cpus

    def _spawn(self, node_id: int) -> "subprocess.Popen[bytes]":
        process = super()._spawn(node_id)
        # PermissionError/OSError propagates: an unpinned run measures
        # the scheduler's placement, not the program (fail loudly, M1).
        os.sched_setaffinity(process.pid, {self.node_cpus[node_id]})
        return process

    def _await_ready_line(self, node_id: int, deadline: float) -> None:
        log_path = self.log_dir / f"node-{node_id}.log"
        marker = f"READY node={node_id} "
        while True:
            process = self.processes[node_id]
            exited = process.poll() is not None
            if log_path.exists() and marker in log_path.read_text(errors="replace"):
                return
            if exited:
                raise NetworkSessionError(
                    f"node {node_id} exited with status {process.returncode} "
                    f"before becoming ready (see {log_path})"
                )
            if time.monotonic() > deadline:
                raise NetworkSessionError(
                    f"node {node_id} never printed READY (see {log_path})"
                )
            time.sleep(_POLL_S)

    def pid(self, node_id: int) -> int:
        return self.processes[node_id].pid


class TracedCluster(BenchCluster):
    """The same cluster with each node inside a ``tracehost`` process."""

    def __init__(self, *args: object, node_cpus: list[int], **kwargs: object) -> None:
        super().__init__(*args, node_cpus=node_cpus, **kwargs)
        self.control_ports: list[int] = _free_ports(self.n_nodes)
        self.controls: list[NodeClient | None] = [None] * self.n_nodes
        #: Nodes listed here start with the recorder already on, so the
        #: recovery inside ``NetNode.__init__`` is recorded.
        self.trace_from_start: set[int] = set()

    def _spawn(self, node_id: int) -> "subprocess.Popen[bytes]":
        env = dict(os.environ)
        repo_root = Path(__file__).resolve().parents[2]
        search = [str(repo_root), str(repo_root / "src")]
        if env.get("PYTHONPATH"):
            search.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(search)
        peers = [
            f"{k}@127.0.0.1:{self.peer_ports[k]}"
            for k in range(self.n_nodes)
            if k != node_id
        ]
        command = [
            sys.executable, "-m", "benchmarks.net.tracehost",
            "--control-port", str(self.control_ports[node_id]),
            "--trace-from-start", str(int(node_id in self.trace_from_start)),
            "--node-id", str(node_id),
            "--items", ",".join(self.items),
            "--peer-port", str(self.peer_ports[node_id]),
            "--client-port", str(self.client_ports[node_id]),
            "--peers", *peers,
            "--seed", str(self.seed),
            "--period", str(self.anti_entropy_period),
        ]  # fmt: skip
        if self.data_dir is not None:
            command += ["--data-dir", str(self.data_dir / f"node-{node_id}")]
        log_file = open(self.log_dir / f"node-{node_id}.log", "w")
        self._log_files.append(log_file)
        process = subprocess.Popen(
            command, stdout=log_file, stderr=subprocess.STDOUT, env=env
        )
        os.sched_setaffinity(process.pid, {self.node_cpus[node_id]})
        return process

    def control(self, node_id: int) -> NodeClient:
        cached = self.controls[node_id]
        if cached is None:
            cached = NodeClient("127.0.0.1", self.control_ports[node_id])
            self.controls[node_id] = cached
        return cached

    def kill(self, node_id: int) -> None:
        self._close_control(node_id)
        super().kill(node_id)

    def stop(self) -> None:
        for node_id in range(self.n_nodes):
            self._close_control(node_id)
        super().stop()

    def _close_control(self, node_id: int) -> None:
        control = self.controls[node_id]
        if control is not None:
            control.close()
            self.controls[node_id] = None
