"""One workload run: incarnations, rounds, phases, recovery, oracle.

A run is ``INCARNATIONS`` clusters one after the other.  Each incarnation
is *set up* (spawn → READY → preload every item at node 0 → node 1 pulls it
all; both nodes' normalised CPU up to there is one ``setup_s`` sample), runs
the workload's fixed number of **rounds** of the five phases, is
**recovered** (SIGKILL node 1, 256 puts at node 0, restart, pull until
``identical``), and is checked by the oracle.  Nothing in a run is sized by the clock: the same
ops in the same order whatever the box, so the journal a recovery replays
and the store a node holds at the end are the same too.  ``--seconds`` is
an upper guard only (``GUARD``).  Every timed metric is the median of its
per-round (or per-incarnation) samples.  Three incarnations, because a
process keeps a speed offset of a few percent for its whole life
(placement of its pages) that no amount of rounds averages out.

Phases of a round, the same in every workload:

put
    uniform random keys at node 0 through the saturating client.
get
    uniform random keys at node 0.
idle
    drain both ways, then ``idle_syncs`` pulls, half by node 0 from node 1
    and then half the other way, each a strict ping-pong; every reply must
    be ``identical``.  Normalised by the *session* kernel.
burst
    ``burst_m`` distinct-key puts at node 0, then one pull by node 1 that
    must adopt exactly ``burst_m``; only the pulls are charged.
mixed
    connection a → node 0 alternates put/get while connection b → node 1
    issues one ``sync 0`` per 64 completed client ops: writes beside reads
    beside sessions on the event loops.

Exact counts (wire bytes, frames, fsyncs, WAL bytes) come from ``status``
deltas taken outside the timed windows, in the first ``EXACT_ROUNDS``
rounds of each incarnation only: they repeat exactly, and a ``status``
reply carries the whole store.
"""

from __future__ import annotations

import compileall
import os
import random
import shutil
import signal
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from benchmarks.net.cluster import BenchCluster, TracedCluster
from benchmarks.net.measure import Meter, Snapshot, nominal_us, speed_factors
from benchmarks.net.oracle import Oracle
from benchmarks.net.procs import (
    cpu_ns,
    cpu_plan,
    peak_rss_mib,
    sched_wait_ns,
    user_sys_ticks,
)
from benchmarks.net.pump import Connection, encode_request, pump
from benchmarks.net.speedometer import Speedometer
from benchmarks.net.workloads import Workload

__all__ = ["Run", "INCARNATIONS", "EXACT_ROUNDS", "OUT_DIR"]

INCARNATIONS = 3
EXACT_ROUNDS = 1
#: The rounds of a run are sized to take about ``run_seconds`` altogether on
#: the sizing box.  Once they have taken ``GUARD`` times ``--seconds`` (a box
#: less than half as fast) an incarnation stops after ``MIN_ROUNDS`` rounds —
#: a traced one needs a round with the recorder off and one with it on — and
#: the meta block says how many rounds were dropped.
GUARD = 2.0
MIN_ROUNDS = 2
RECOVERY_PUTS = 256
SYNC_EVERY = 64

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]
OUT_DIR = PACKAGE_DIR / "out"


class Run:
    """Shared state of one workload run: speedometers, samples, oracle."""

    def __init__(self, spec: Workload, seed: int, seconds: float, smoke: bool) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.rng = random.Random(seed)
        self.oracle = Oracle()
        self.samples: dict[str, list[float]] = {}
        self.node_cpus, self.harness_cpu = cpu_plan(2)
        self.meter = Meter({}, self.node_cpus)
        self.round_seconds = 0.0
        self.rounds_dropped = 0
        self.scratch = OUT_DIR / f"run-{os.getpid()}"

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    @contextmanager
    def resources(self) -> Iterator[None]:
        """Scratch directory, pinned harness, compiled sources; everything
        started here or later is reaped on the way out (M5)."""
        # Nodes inherit the environment: fixed str hashes, and byte code
        # compiled once so that start-up time is import, not compilation.
        previous_hash_seed = os.environ.get("PYTHONHASHSEED")
        os.environ["PYTHONHASHSEED"] = "0"
        compileall.compile_dir(str(REPO_ROOT / "src"), quiet=2, workers=1)
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        previous_affinity = os.sched_getaffinity(0)
        previous_term = signal.signal(signal.SIGTERM, _raise_interrupt)
        os.sched_setaffinity(0, {self.harness_cpu})
        try:
            yield
        finally:
            self.stop_speedometers()
            os.sched_setaffinity(0, previous_affinity)
            signal.signal(signal.SIGTERM, previous_term)
            if previous_hash_seed is None:
                del os.environ["PYTHONHASHSEED"]
            else:
                os.environ["PYTHONHASHSEED"] = previous_hash_seed
            shutil.rmtree(self.scratch, ignore_errors=True)

    def start_speedometers(self) -> None:
        if self.meter.speedometers:
            return
        for cpu in sorted({*self.node_cpus, self.harness_cpu}):
            self.meter.speedometers[cpu] = Speedometer(cpu, self.scratch)
        for speedometer in self.meter.speedometers.values():
            speedometer.wait_running()

    def stop_speedometers(self) -> None:
        for speedometer in self.meter.speedometers.values():
            speedometer.stop()
        self.meter.speedometers.clear()

    # -- the end-to-end flow ---------------------------------------------------

    def run_end_to_end(self) -> None:
        self.start_speedometers()
        incarnations = 1 if self.smoke else INCARNATIONS
        for index in range(incarnations):
            incarnation = Incarnation(self, self.spec, index)
            with incarnation.running():
                incarnation.rounds(self.spec.rounds)
                incarnation.recover()
                incarnation.final_check()


def _raise_interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt(f"signal {signum}")


class Incarnation:
    """One cluster, from spawn to shutdown, and the phases run against it."""

    def __init__(
        self,
        run: Run,
        spec: Workload,
        index: int,
        *,
        prefix: str = "",
        traced: bool = False,
    ) -> None:
        self.run = run
        self.spec = spec
        self.prefix = prefix
        self.items = spec.items
        self.oracle = run.oracle
        self.rng = random.Random(run.rng.getrandbits(64))
        self.meter = run.meter
        self.exact = False
        #: True while the recorder of a traced cluster is on: samples go
        #: under ``traced.`` instead of ``host.``.
        self.recording = False
        self.phase_cost: dict[str, dict[int, list[float]]] = {}
        self.phase_ops: dict[str, int] = {}
        root = run.scratch / f"{prefix or 'e2e.'}{index}"
        cluster_class = TracedCluster if traced else BenchCluster
        self.cluster: BenchCluster = cluster_class(
            2,
            self.items,
            root / "logs",
            seed=run.seed,
            data_dir=root / "data" if spec.durable else None,
            node_cpus=run.node_cpus,
        )
        #: The same cluster when its nodes run inside trace hosts.
        self.traced = self.cluster if isinstance(self.cluster, TracedCluster) else None
        #: Client connections: ``writers`` → node 0, ``b`` → node 1 (set by
        #: the set-up; ``b`` is replaced when node 1 is restarted).
        self.writers: list[Connection] = []
        self.b: Connection
        self._opened: list[Connection] = []

    def add(self, name: str, value: float) -> None:
        prefix = "traced." if self.recording else self.prefix
        self.run.add(prefix + name, value)

    # -- lifecycle -------------------------------------------------------------

    @contextmanager
    def running(self) -> Iterator[None]:
        try:
            self._set_up()
            yield
        finally:
            for connection in self._opened:
                connection.close()
            self.cluster.stop()

    def _connect(self, node: int) -> Connection:
        connection = Connection(self.cluster.client_ports[node])
        self._opened.append(connection)
        return connection

    def _set_up(self) -> None:
        """Spawn → READY → preload every item at node 0 → node 1 pulls it
        all (and node 0 pulls once back, which dials the reverse link).

        ``setup_s`` is both nodes' normalised CPU from exec to that point,
        in nominal seconds: everything a node does before it serves is in
        it, and unlike the wall time (``wall.setup_s``, which on this VM
        class swung 0.67–0.89 s between two sets of ten runs) it repeats.
        """
        started = time.perf_counter()
        self.meter.pids = []
        opened = self.meter.snapshot() if self.meter.speedometers else None
        cluster = self.cluster
        cluster.start()
        self.meter.pids = [cluster.pid(0), cluster.pid(1)]
        self.writers = [self._connect(0) for _ in range(self.spec.writers)]
        self.b = self._connect(1)
        self.oracle.model = {}
        self._put_batch(self.writers[0], list(self.items))
        self.oracle.check_sync(cluster.client(1).sync(0), adopted=len(self.items))
        self.oracle.check_sync(cluster.client(0).sync(1), identical=True)
        self.add("wall.setup_s", time.perf_counter() - started)
        if opened is not None:
            since_exec = dict(enumerate(cpu_ns(pid) for pid in self.meter.pids))
            window = [opened, self.meter.snapshot()]
            self.add("setup_s", self._cost("setup", window, [0, 1], "compute", 1, since_exec) / 1e6)

    def _put_batch(self, connection: Connection, names: list[str]) -> None:
        """Untimed puts of fresh random values, acknowledged and modelled."""
        connection.submit(self._put_requests(names))
        pump([connection])
        self.oracle.check_puts(connection.take_replies(), len(names))

    def _put_requests(self, names: list[str]) -> list[bytes]:
        requests = []
        size = self.spec.value_bytes
        model = self.oracle.model
        for name in names:
            value = self.rng.randbytes(size).hex()
            model[name] = value
            requests.append(encode_request({"op": "put", "item": name, "value": value}))
        return requests

    def _key_halves(self) -> list[tuple[str, ...]]:
        """The key range of each writer connection: disjoint."""
        if len(self.writers) == 1:
            return [self.items]
        middle = len(self.items) // 2
        return [self.items[:middle], self.items[middle:]]

    def _statuses(self) -> list[dict[str, Any]]:
        return [self.cluster.client(node).status() for node in (0, 1)]

    def _mark(self, phase: str) -> None:
        if self.recording and self.traced is not None:
            for node in (0, 1):
                self.traced.control(node).request({"op": "phase", "name": phase})

    @contextmanager
    def _window(self, phase: str) -> Iterator[list[Snapshot]]:
        """``[before, after]`` snapshots around a timed window."""
        window: list[Snapshot] = []
        self._mark(phase)
        window.append(self.meter.snapshot())
        yield window
        window.append(self.meter.snapshot())
        self._mark("off")
        if window[0].speed:
            for slot, cpu in enumerate(self.meter.node_cpus):
                sample, earlier = window[1].speed[cpu], window[0].speed[cpu]
                self.run.add(f"speed.cpu{slot}_rate", sample.compute_rate_since(earlier) * 1e9)
                self.run.add(f"speed.cpu{slot}_session_rate", sample.session_rate_since(earlier) * 1e9)

    def _charge(self, phase: str, cpu_ns_by_node: dict[int, int], nominal_by_node: dict[int, float], ops: int) -> None:
        """Remember raw and nominal CPU per node of a traced phase, so span
        self times (raw ns) can be scaled the way the phase's cost was."""
        if not self.recording:
            return
        per_node = self.phase_cost.setdefault(phase, {0: [0.0, 0.0], 1: [0.0, 0.0]})
        for node, raw in cpu_ns_by_node.items():
            per_node[node][0] += raw
            per_node[node][1] += nominal_by_node[node]
        self.phase_ops[phase] = self.phase_ops.get(phase, 0) + ops

    def _cost(self, phase: str, window: list[Snapshot], nodes: list[int], kind: str, ops: int,
              cpu_ns_by_node: dict[int, int] | None = None) -> float:
        """Nominal us over ``nodes`` for a window (or for the given CPU
        deltas inside it), per op."""
        before, after = window
        if cpu_ns_by_node is None:
            deltas = after.cpu_since(before)
            cpu_ns_by_node = {node: deltas[node] for node in nodes}
        factors = speed_factors(before, after, kind)
        nominal = {
            node: nominal_us({node: raw}, factors, self.meter.node_cpus)
            for node, raw in cpu_ns_by_node.items()
        }
        self._charge(phase, cpu_ns_by_node, nominal, ops)
        return sum(nominal.values()) / ops

    # -- rounds ----------------------------------------------------------------

    def rounds(self, count: int, layers: bool = False) -> None:
        """Run ``count`` rounds (fewer only when the guard trips)."""
        run = self.run
        for done in range(count):
            if done >= MIN_ROUNDS and run.round_seconds > GUARD * run.seconds:
                run.rounds_dropped += count - done
                break
            started = time.monotonic()
            self.exact = done < EXACT_ROUNDS
            self._set_recording(done % 2 == 1)
            self.phase_put(layers)
            self.phase_get()
            self.phase_idle()
            self.phase_burst(self.spec.burst_m, "")
            if layers:
                self.phase_burst(self.spec.burst_m // 4, "quarter.")
            self.phase_mixed()
            run.round_seconds += time.monotonic() - started
        self._set_recording(False)

    def _set_recording(self, on: bool) -> None:
        """Traced clusters alternate rounds with the recorder off and on."""
        if self.traced is not None and on != self.recording:
            for node in (0, 1):
                self.traced.control(node).request({"op": "trace", "on": on})
            self.recording = on
            # Whatever runs before the first timed window is no phase's.
            self._mark("off")

    def phase_put(self, layers: bool) -> None:
        spec = self.spec
        share = spec.puts // len(self.writers)
        for connection, keys in zip(self.writers, self._key_halves()):
            connection.submit(self._put_requests(self.rng.choices(keys, k=share)))
        puts = share * len(self.writers)
        counters = self._durable_counters() if self.exact else None
        if layers:
            node0 = self.meter.pids[0]
            wait_before = sched_wait_ns(node0)
            ticks_before = user_sys_ticks(node0)
        with self._window("put") as window:
            pump(self.writers)
        for connection in self.writers:
            self.oracle.check_puts(connection.take_replies(), share)
        self.add("put_cpu_us", self._cost("put", window, [0], "compute", puts))
        wall_s = window[1].wall_s_since(window[0])
        self.add("wall.puts_per_s", puts / wall_s)
        if layers:
            blocked_ns = (
                wall_s * 1e9
                - window[1].cpu_since(window[0])[0]
                - (sched_wait_ns(node0) - wait_before)
            )
            self.add("durable.put_blocked_us", blocked_ns / puts / 1000)
            user, system = (
                now - then for now, then in zip(user_sys_ticks(node0), ticks_before)
            )
            self.add("cpu.put_user_ticks", user)
            self.add("cpu.put_sys_ticks", system)
        if counters is not None:
            after = self._durable_counters()
            fsyncs, wal_bytes, checkpoints = (now - then for now, then in zip(after, counters))
            snapshot_bytes = self._checkpoint_bytes()
            self.add("durable.fsyncs_per_put", fsyncs / puts)
            self.add("durable.wal_bytes_per_put", wal_bytes / puts)
            self.add("durable.checkpoints_per_1k_puts", checkpoints * 1000 / puts)
            self.add("durable.checkpoint_bytes", snapshot_bytes)
            self.add("durable.disk_bytes_per_put", (wal_bytes + checkpoints * snapshot_bytes) / puts)

    def _durable_counters(self) -> tuple[int, int, int]:
        """``(fsyncs, wal_bytes, checkpoints)`` of node 0; zeros in memory."""
        durable = self.cluster.client(0).status().get("durable")
        if durable is None:
            return 0, 0, 0
        return durable["fsyncs"], durable["wal_bytes"], durable["checkpoints"]

    def _checkpoint_bytes(self) -> int:
        if self.cluster.data_dir is None:
            return 0
        snapshot = self.cluster.data_dir / "node-0" / "checkpoint.snap"
        return snapshot.stat().st_size if snapshot.exists() else 0

    def phase_get(self) -> None:
        share = self.spec.gets // len(self.writers)
        expected: list[list[str]] = []
        model = self.oracle.model
        for connection, keys in zip(self.writers, self._key_halves()):
            names = self.rng.choices(keys, k=share)
            expected.append([model[name] for name in names])
            connection.submit(encode_request({"op": "get", "item": name}) for name in names)
        with self._window("get") as window:
            pump(self.writers)
        for connection, values in zip(self.writers, expected):
            self.oracle.check_gets(connection.take_replies(), values)
        gets = share * len(self.writers)
        self.add("get_cpu_us", self._cost("get", window, [0], "compute", gets))
        self.add("wall.gets_per_s", gets / window[1].wall_s_since(window[0]))

    def drain(self) -> None:
        """Bring both nodes level (untimed)."""
        self.oracle.check_sync(self.cluster.client(1).sync(0))
        self.oracle.check_sync(self.cluster.client(0).sync(1), identical=True)

    def phase_idle(self) -> None:
        self.drain()
        half = self.spec.idle_syncs // 2
        statuses = self._statuses() if self.exact else None
        self.writers[0].submit([encode_request({"op": "sync", "peer": 1})] * half)
        self.b.submit([encode_request({"op": "sync", "peer": 0})] * half)
        with self._window("idle") as window:
            pump([self.writers[0]])
            pump([self.b])
        for connection in (self.writers[0], self.b):
            self.oracle.check_syncs(connection.take_replies(), half, identical=True)
        pulls = 2 * half
        self.add("idle_sync_cpu_us", self._cost("idle", window, [0, 1], "session", pulls))
        self.add("wall.idle_syncs_per_s", pulls / window[1].wall_s_since(window[0]))
        if statuses is not None:
            sent = _traffic_since(statuses, self._statuses())
            self.add("wire_bytes_per_idle_sync", sent["bytes_sent"] / pulls)
            self.add("net.frames_per_idle_sync", sent["frames_sent"] / pulls)

    def phase_burst(self, m: int, tag: str) -> None:
        """``bursts`` times: m distinct-key puts at node 0, one pull by
        node 1.  ``tag`` keeps the quarter-size bursts of the layer run
        apart from the workload's own."""
        statuses = self._statuses() if self.exact else None
        pulls: list[dict[int, int]] = []
        pull_wall_ns = 0
        phase = "burst" if not tag else "off"
        with self._window(phase) as window:
            for _ in range(self.spec.bursts):
                self._mark("off")
                self._put_batch(self.writers[0], self.rng.sample(self.items, m))
                self.b.submit([encode_request({"op": "sync", "peer": 0})])
                self._mark(phase)
                started_wall = time.perf_counter_ns()
                started = [cpu_ns(pid) for pid in self.meter.pids]
                pump([self.b])
                pulls.append(
                    {node: cpu_ns(pid) - started[node] for node, pid in enumerate(self.meter.pids)}
                )
                pull_wall_ns += time.perf_counter_ns() - started_wall
                self.oracle.check_syncs(self.b.take_replies(), 1, identical=False, adopted=m)
        # One sample per pull, not per round: a pull is a few ms of CPU, and
        # one that the host preempted (both nodes charged 15 ms at once) or
        # that hit a collector pass must not colour its whole round.
        for cpu in pulls:
            self.add(tag + "propagate_cpu_us_per_item", self._cost(phase, window, [0, 1], "compute", m, cpu))
        self.add(tag + "wall.propagate_ms", pull_wall_ns / len(pulls) / 1e6)
        if statuses is not None:
            sent = _traffic_since(statuses, self._statuses())
            self.add(tag + "wire_bytes_per_item", sent["bytes_sent"] / (len(pulls) * m))
            self.add(tag + "net.frames_per_burst_sync", sent["frames_sent"] / len(pulls))

    def phase_mixed(self) -> None:
        a, b = self.writers[0], self.b
        ops = self.spec.mixed_ops
        names = self.rng.choices(self.items, k=ops)
        requests: list[bytes] = []
        expected: list[str | None] = []
        model = self.oracle.model
        for index, name in enumerate(names):
            if index % 2 == 0:
                requests.extend(self._put_requests([name]))
                expected.append(None)
            else:
                requests.append(encode_request({"op": "get", "item": name}))
                expected.append(model[name])
        a.submit(requests)
        sync = encode_request({"op": "sync", "peer": 0})
        progress = {"done": 0, "syncs": 0}

        def on_progress(connection: Connection, n: int) -> None:
            if connection is a:
                progress["done"] += n
                due = progress["done"] // SYNC_EVERY - progress["syncs"]
                if due > 0:
                    b.submit([sync] * due)
                    progress["syncs"] += due

        with self._window("mixed") as window:
            pump([a, b], on_progress)
        self.oracle.check_mixed(a.take_replies(), expected)
        self.oracle.check_syncs(b.take_replies(), progress["syncs"])
        self.add("mixed_cpu_us_per_op", self._cost("mixed", window, [0, 1], "compute", ops))

    # -- recovery and the final check -------------------------------------------

    def recover(self) -> None:
        """SIGKILL node 1, write at node 0, restart node 1, catch up."""
        cluster, spec = self.cluster, self.spec
        self.drain()
        before_kill = cluster.client(1).status() if spec.durable else None
        if self.traced is not None:
            # What node 1 recorded dies with it; its next life records from
            # the first import, recovery included.
            self.dump_spans(1, "first-life")
            self.traced.trace_from_start.add(1)
        self.b.close()
        # The speed window opens while node 1 still has a CPU clock to read.
        window = [self.meter.snapshot()]
        cluster.kill(1)
        self._put_batch(self.writers[0], self.rng.sample(self.items, min(RECOVERY_PUTS, len(self.items))))
        started = time.perf_counter()
        cluster.restart(1)
        pid = cluster.pid(1)
        self.meter.pids[1] = pid
        cpu_ready = cpu_ns(pid)
        replayed = 0
        if before_kill is not None:
            after_restart = cluster.client(1).status()
            self.oracle.check_recovered(before_kill, after_restart)
            replayed = after_restart["durable"]["records_replayed"]
        self.add("durable.records_replayed", replayed)
        # The restarted trace host came up recording (node 0's stays off);
        # say so here, so that the marks reach it and the samples are filed
        # under ``traced.``, and switch everything off again below.
        self.recording = self.traced is not None
        self._mark("catchup")
        cpu_before_catchup = cpu_ns(pid)
        # A durable node is behind by the recovery puts; one that was in
        # memory is back empty and adopts the whole store.
        behind = min(RECOVERY_PUTS, len(self.items)) if spec.durable else len(self.items)
        self.oracle.check_sync(cluster.client(1).sync(0), adopted=behind)
        self.oracle.check_sync(cluster.client(1).sync(0), identical=True)
        cpu_caught_up = cpu_ns(pid)
        self._mark("off")
        window.append(self.meter.snapshot())
        raw_ns = cpu_ready + cpu_caught_up - cpu_before_catchup
        self.add("recover_cpu_s", self._cost("recover", window, [1], "compute", 1, {1: raw_ns}) / 1e6)
        self.add("wall.recover_s", time.perf_counter() - started)
        self._set_recording(False)
        self.b = self._connect(1)

    def final_check(self) -> None:
        self.drain()
        statuses = self._statuses()
        self.oracle.check_converged(statuses)
        self.add("node_rss_mb", peak_rss_mib(self.cluster.pid(0)))
        self.add("net.reconnects", sum(status["reconnects"] for status in statuses))
        self.add("net.sync_retries", sum(status["sync_retries"] for status in statuses))

    def dump_spans(self, node: int, life: str) -> Path:
        """Have a trace host write its spans; returns the file."""
        if self.traced is None:
            raise RuntimeError("only a traced cluster has spans to dump")
        path = self.run.scratch / f"spans-node{node}-{life}.json"
        self.traced.control(node).request({"op": "dump", "path": str(path)})
        return path


def _traffic_since(before: list[dict[str, Any]], after: list[dict[str, Any]]) -> dict[str, int]:
    """Both nodes' ``bytes_sent`` / ``frames_sent`` deltas, summed."""
    return {
        key: sum(now[key] - then[key] for now, then in zip(after, before))
        for key in ("bytes_sent", "frames_sent")
    }
