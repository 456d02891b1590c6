"""The layer run (``--trace 1``): per-layer metrics, outside and inside.

Three clusters, one after the other:

1. the **stock** cluster (``python -m repro.net``), with the extra outside
   readings: unloaded round trips through the stock ``NodeClient`` (taken
   before the speedometers start), run-queue wait, user/system split,
   quarter-size bursts for the slope, wall-clock rates;
2. a tiny **reference** cluster (16 items, in memory) whose idle-pull cost
   is the denominator of ``shape.idle_sync_n_ratio`` — the paper predicts
   a ratio of 1 whatever the workload's N;
3. the **traced** cluster (``benchmarks.net.tracehost``), whose rounds
   alternate recorder off / recorder on, and whose recovery is recorded
   from the first import.

Span self times are raw loop-thread CPU ns; they are scaled per phase and
per node by (nominal cost ÷ raw CPU) of the windows they were recorded in,
so the layer metrics of a phase add up to that phase's traced cost.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from statistics import median
from typing import Any

from benchmarks.net.bench import OUT_DIR, Incarnation, Run
from benchmarks.net.trace import CLIENT_OP, SERVE_SESSION, check_spans, self_times
from benchmarks.net.workloads import WORKLOADS

__all__ = ["run_layers", "TRACED_METRICS"]

_RTT_SAMPLES = 200

#: ``metric: (phase, span name)``; per put / get / pull, per adopted item
#: in ``burst``, per recovery in ``recover``.  ``handler`` is the root
#: span's own time (``_serve_client``/``_serve_peer`` glue);
#: ``loop_other`` is process CPU outside every root (selector, transports).
TRACED_METRICS: dict[str, tuple[str, str]] = {
    "put.net.read_blob_us": ("put", "net.read_blob"),
    "put.net.json_us": ("put", "net.json"),
    "put.net.write_blob_us": ("put", "net.write_blob"),
    "put.net.handler_us": ("put", "handler"),
    "put.loop_other_us": ("put", "loop_other"),
    "put.core.validate_us": ("put", "core.validate"),
    "put.core.node_update_us": ("put", "core.node_update"),
    "put.durable.record_update_us": ("put", "durable.record_update"),
    "put.durable.wal_commit_us": ("put", "durable.wal_commit"),
    "put.durable.checkpoint_us": ("put", "durable.checkpoint"),
    "get.core.node_read_us": ("get", "core.node_read"),
    "idle.core.session_request_us": ("idle", "core.session_request"),
    "idle.core.session_respond_us": ("idle", "core.session_respond"),
    "idle.core.session_conclude_us": ("idle", "core.session_conclude"),
    "idle.wire.encode_us": ("idle", "wire.encode"),
    "idle.wire.decode_us": ("idle", "wire.decode"),
    "idle.net.read_frame_us": ("idle", "net.read_frame"),
    "idle.net.write_frame_us": ("idle", "net.write_frame"),
    "idle.net.client_json_us": ("idle", "net.json"),
    "idle.net.handler_us": ("idle", "handler"),
    "idle.loop_other_us": ("idle", "loop_other"),
    "burst.core.session_respond_us": ("burst", "core.session_respond"),
    "burst.wire.encode_us": ("burst", "wire.encode"),
    "burst.wire.decode_us": ("burst", "wire.decode"),
    "burst.core.validate_us": ("burst", "core.validate"),
    "burst.core.session_conclude_us": ("burst", "core.session_conclude"),
    "burst.net.read_frame_us": ("burst", "net.read_frame"),
    "burst.durable.record_accept_us": ("burst", "durable.record_accept"),
    "burst.durable.wal_commit_us": ("burst", "durable.wal_commit"),
    "recover.import_us": ("recover", "recover.import"),
    "recover.persistence.load_node_us": ("recover", "persistence.load_node"),
    "recover.durable.wal_scan_us": ("recover", "durable.wal_scan"),
    "recover.durable.replay_us": ("recover", "durable.recover"),
    "recover.catchup_sync_us": ("recover", "catchup"),
}

_ROOTS = (CLIENT_OP, SERVE_SESSION)


def run_layers(run: Run) -> dict[str, float]:
    """Run the three clusters; returns the computed (non-sample) metrics."""
    spec = run.spec

    stock = Incarnation(run, spec, 0)
    with stock.running():
        _round_trips(stock)
        run.start_speedometers()
        stock.rounds(spec.rounds, layers=True)
        stock.recover()
        stock.final_check()

    reference = Incarnation(
        run, replace(WORKLOADS["mem_small_kv"], n_items=16, idle_syncs=spec.idle_syncs), 0,
        prefix="ref.",
    )  # fmt: skip
    with reference.running():
        for _ in range(3):
            reference.phase_idle()

    host = Incarnation(run, spec, 0, prefix="host.", traced=True)
    with host.running():
        # An even number: its rounds alternate recorder off / recorder on.
        host.rounds(spec.rounds + spec.rounds % 2)
        host.recover()
        host.final_check()
        dumps = {
            "node0": host.dump_spans(0, "only-life"),
            "node1-first-life": run.scratch / "spans-node1-first-life.json",
            "node1-second-life": host.dump_spans(1, "second-life"),
        }
        recorded = {tag: json.loads(path.read_text()) for tag, path in dumps.items()}

    computed = _traced_metrics(run, host, recorded)
    computed.update(_shape_metrics(run))
    return computed


def _round_trips(incarnation: Incarnation) -> None:
    """Unloaded request latency through the stock blocking client, window
    1: what PR 14 gated on.  Reported, not gated — on this VM class it
    measures the hypervisor's wake-up path."""
    client = incarnation.cluster.client(0)
    rng, items, size = incarnation.rng, incarnation.items, incarnation.spec.value_bytes
    model = incarnation.oracle.model
    laps: dict[str, list[float]] = {"put": [], "get": [], "idle_sync": []}
    for _ in range(_RTT_SAMPLES):
        name, value = rng.choice(items), rng.randbytes(size)
        started = time.perf_counter_ns()
        client.put(name, value)
        laps["put"].append((time.perf_counter_ns() - started) / 1000)
        model[name] = value.hex()
    for _ in range(_RTT_SAMPLES):
        name = rng.choice(items)
        started = time.perf_counter_ns()
        got = client.get(name)
        laps["get"].append((time.perf_counter_ns() - started) / 1000)
        if got.hex() != model[name]:
            incarnation.oracle.violation(f"unloaded get of {name} returned a stale value")
    incarnation.drain()
    for _ in range(_RTT_SAMPLES):
        started = time.perf_counter_ns()
        reply = client.sync(1)
        laps["idle_sync"].append((time.perf_counter_ns() - started) / 1000)
        incarnation.oracle.check_sync(reply, identical=True)
    incarnation.oracle.attempted += 2 * _RTT_SAMPLES
    run = incarnation.run
    run.add("rtt.put_p50_us", median(laps["put"]))
    # 200 samples: the 99th percentile has two samples beyond it — a rough
    # tail, reported with its n in the README, never gated.
    run.add("rtt.put_p99_us", sorted(laps["put"])[int(_RTT_SAMPLES * 0.99) - 1])
    run.add("rtt.get_p50_us", median(laps["get"]))
    run.add("rtt.idle_sync_p50_us", median(laps["idle_sync"]))


def _shape_metrics(run: Run) -> dict[str, float]:
    """The paper's shape on the real cluster: flat in N, linear in m."""
    samples = run.samples
    m = run.spec.burst_m
    at_m = median(samples["propagate_cpu_us_per_item"])
    at_quarter = median(samples["quarter.propagate_cpu_us_per_item"])
    # cost(m) = fixed + slope * m, measured at m and m/4.
    fixed = (4 * at_quarter * (m // 4) - at_m * m) / 3
    return {
        "shape.idle_sync_n_ratio": median(samples["idle_sync_cpu_us"])
        / median(samples["ref.idle_sync_cpu_us"]),
        "shape.propagate_slope_ratio": at_m / at_quarter,
        "shape.session_fixed_us": fixed,
    }


def _traced_metrics(
    run: Run, host: Incarnation, recorded: dict[str, dict[str, Any]]
) -> dict[str, float]:
    """Scale span self times to nominal us per op; write the span file."""
    totals: dict[tuple[str, str], float] = {}
    span_count = 0
    problems: list[str] = []
    for tag, record in recorded.items():
        node = 0 if tag == "node0" else 1
        spans = record["spans"]
        span_count += len(spans)
        problems += [f"{tag}: {problem}" for problem in check_spans(spans)]
        own = self_times(spans)
        in_roots: dict[str, int] = {}
        for span_id, _parent, _op, name, phase, _start, _end, busy in spans:
            if phase == "start":
                phase = "recover"
            elif phase == "catchup":
                phase, name = "recover", "catchup" if name in _ROOTS else name
            if name in _ROOTS:
                in_roots[phase] = in_roots.get(phase, 0) + busy
                name = "handler"
            scale = _scale(host, phase, node)
            key = (phase, name)
            # ``catchup`` is the whole op, the others their own time only.
            totals[key] = totals.get(key, 0.0) + (busy if name == "catchup" else own[span_id]) * scale
        for phase, total_ns in _phase_cpu(record["marks"]).items():
            other = total_ns - in_roots.get(phase, 0)
            key = (phase, "loop_other")
            totals[key] = totals.get(key, 0.0) + other * _scale(host, phase, node)

    for problem in problems[:10]:
        run.oracle.violation(f"span file: {problem}")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace_{run.spec.name}.json", "w") as fh:
        json.dump(recorded, fh)

    metrics: dict[str, float] = {}
    for metric, (phase, name) in TRACED_METRICS.items():
        ops = host.phase_ops.get(phase, 0)
        metrics[metric] = totals.get((phase, name), 0.0) / 1000 / ops if ops else 0.0
    put = {kind: median(run.samples[f"{kind}put_cpu_us"]) for kind in ("", "host.", "traced.")}
    metrics["trace.overhead_ratio"] = put["traced."] / put["host."]
    metrics["trace.inproc_vs_cluster_put_ratio"] = put["host."] / put[""]
    metrics["trace.spans"] = float(span_count)
    return metrics


def _scale(host: Incarnation, phase: str, node: int) -> float:
    """Nominal ns per raw CPU ns of ``node`` in the traced windows of ``phase``."""
    raw, nominal_us = host.phase_cost.get(phase, {}).get(node, (0.0, 0.0))
    return nominal_us * 1000 / raw if raw else 0.0


def _phase_cpu(marks: list[list[Any]]) -> dict[str, int]:
    """Loop-thread CPU ns between each phase mark and the next one."""
    totals: dict[str, int] = {}
    for (phase, began), (_next_phase, ended) in zip(marks, marks[1:]):
        if phase not in ("off", "start", "catchup"):
            totals[phase] = totals.get(phase, 0) + ended - began
    return totals
