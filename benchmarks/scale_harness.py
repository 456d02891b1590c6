"""Round-loop scale harness: what a simulated round costs as n and N grow.

The round loop's two instruments are incremental: ``converged()``
compares ``state_digest()`` integers and the per-round staleness sample
reads the ``GroundTruth`` dirty frontier, so both cost O(n) plus the
size of what actually changed instead of O(n·N).  This harness times a
burst-then-quiesce workload through the ``ClusterSimulation`` round
loop across a grid of cluster sizes n and database sizes N.

The measured loop is the shape of every staleness experiment in the
repo (E5/E7/E9): per round, ``run_round()`` (which samples
``stale_pairs``), a ``converged()`` check, and a ground-truth
``observe()``.  The workload is a conflict-free burst (distinct items,
one writer each) followed by quiescence; the cluster converges within
the first ~10 rounds and the remaining rounds measure the steady-state
cost that dominates long experiment runs.  Sanitizer mode is forced
off so cross-checking never pollutes the timings.

Each grid cell reports a *per-phase* breakdown alongside the full-run
average: the ``converge`` phase (rounds up to and including the first
round the cluster converged — real anti-entropy data movement) and the
``steady_state`` phase (everything after — rounds of identical-copy
sessions only).  The two phases have very different cost profiles; a
regression in either is invisible in the blended average once the
other dominates.

``run_quiescent_suite`` is the dedicated quiescent-heavy configuration
(n=128 on a deterministic ring): a converged, idle cluster.  Every
session in its timed window is the paper's O(1) identical-replica
exchange — one DBVV comparison, one ``YouAreCurrent`` — so
``quiescent.modelled.per_round_ms`` is what 128 of those cost, and CI's
bench gate guards it.

``python benchmarks/scale_harness.py`` (or the driver test in
``test_scale.py``) writes ``BENCH_scale.json`` at the repo root.  Set
``REPRO_SCALE_SMOKE=1`` for the CI-sized grid.  Pass ``--profile`` to
dump the cProfile top functions of the quiescent round loop instead of
running the full grid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.cluster.scheduler import RingSelector  # noqa: E402
from repro.cluster.simulation import ClusterSimulation  # noqa: E402
from repro.experiments.common import make_factory, make_items  # noqa: E402
from repro.substrate.operations import Put  # noqa: E402

__all__ = [
    "DEFAULT_GRID",
    "SMOKE_GRID",
    "QUIESCENT_NODES",
    "QUIESCENT_ITEMS",
    "active_grid",
    "active_rounds",
    "active_quiescent_rounds",
    "run_config",
    "run_grid",
    "run_quiescent_config",
    "run_quiescent_suite",
    "write_report",
]

# (n_nodes, n_items) grid from the issue: n ∈ {8, 32, 128}, N ∈ {100, 1000}.
DEFAULT_GRID: tuple[tuple[int, int], ...] = (
    (8, 100),
    (8, 1000),
    (32, 100),
    (32, 1000),
    (128, 100),
    (128, 1000),
)
DEFAULT_ROUNDS = 200

# CI smoke: small enough to finish in seconds.
SMOKE_GRID: tuple[tuple[int, int], ...] = ((8, 100), (32, 100), (32, 1000))
SMOKE_ROUNDS = 60

BURST_UPDATES = 64
REPORT_NAME = "BENCH_scale.json"

# The quiescent-heavy configuration: an n=128 cluster, idle after
# convergence, on a deterministic ring so every round runs the same n
# sessions over the same links.
QUIESCENT_NODES = 128
QUIESCENT_ITEMS = 1000
QUIESCENT_ROUNDS = 60
QUIESCENT_SMOKE_ROUNDS = 20
QUIESCENT_WARM_ROUNDS = 5


def smoke_mode() -> bool:
    return os.environ.get("REPRO_SCALE_SMOKE", "") not in ("", "0")


def active_grid() -> tuple[tuple[int, int], ...]:
    return SMOKE_GRID if smoke_mode() else DEFAULT_GRID


def active_rounds() -> int:
    return SMOKE_ROUNDS if smoke_mode() else DEFAULT_ROUNDS


def active_quiescent_rounds() -> int:
    return QUIESCENT_SMOKE_ROUNDS if smoke_mode() else QUIESCENT_ROUNDS


def run_config(
    n_nodes: int,
    n_items: int,
    *,
    rounds: int,
    protocol: str = "dbvv",
    seed: int = 7,
) -> dict[str, Any]:
    """Time the instrumented round loop for one (n, N) cell.

    Returns per-round wall time for the full loop, for the explicit
    instruments (``converged()`` + ``observe()``), and per phase —
    ``converge`` (rounds up to and including the first converged one)
    vs ``steady_state`` (the quiescent remainder).  ``run_round()``
    itself also samples ``stale_pairs`` once per round; that cost is in
    the round figure, not the instrument one.
    """
    items = make_items(n_items)
    sim = ClusterSimulation(
        make_factory(protocol, n_nodes, items),
        n_nodes,
        items,
        seed=seed,
        sanitize=False,  # never let REPRO_SANITIZE poison timings
    )
    burst = min(BURST_UPDATES, n_items)
    for k in range(burst):
        sim.apply_update(k % n_nodes, items[k], Put(f"b{k}".encode()))

    converge_round = None
    instrument_s = 0.0
    round_s: list[float] = []
    t0 = time.perf_counter()
    for _ in range(rounds):
        r0 = time.perf_counter()
        sim.run_round()
        i0 = time.perf_counter()
        done = sim.converged()
        sim.ground_truth.observe(float(sim.round_no), sim.nodes)
        now = time.perf_counter()
        instrument_s += now - i0
        round_s.append(now - r0)
        if done and converge_round is None:
            converge_round = sim.round_no
    total_s = time.perf_counter() - t0

    # Phase split: round i (1-based sim.round_no) landed at round_s[i-1].
    split = converge_round if converge_round is not None else rounds
    converge_s = sum(round_s[:split])
    steady = round_s[split:]

    counters = sim.total_counters
    return {
        "per_round_ms": round(total_s / rounds * 1e3, 4),
        "rounds_per_sec": round(rounds / total_s, 2),
        "instrument_per_round_ms": round(instrument_s / rounds * 1e3, 4),
        "phases": {
            "converge": {
                "rounds": split,
                "per_round_ms": round(converge_s / split * 1e3, 4)
                if split
                else 0.0,
            },
            "steady_state": {
                "rounds": len(steady),
                "per_round_ms": round(sum(steady) / len(steady) * 1e3, 4)
                if steady
                else 0.0,
            },
        },
        "converge_round": converge_round,
        "staleness_reexaminations": counters.staleness_reexaminations,
        "messages_sent": counters.messages_sent,
    }


def run_grid(
    grid: tuple[tuple[int, int], ...] | None = None,
    *,
    rounds: int | None = None,
    protocol: str = "dbvv",
    seed: int = 7,
) -> dict[str, Any]:
    """Every grid cell, plus the quiescent suite."""
    grid = active_grid() if grid is None else grid
    rounds = active_rounds() if rounds is None else rounds
    configs = [
        {
            "n_nodes": n_nodes,
            "n_items": n_items,
            "incremental": run_config(
                n_nodes, n_items, rounds=rounds, protocol=protocol, seed=seed
            ),
        }
        for n_nodes, n_items in grid
    ]
    return {
        "benchmark": "scale-round-loop",
        "protocol": protocol,
        "rounds_per_config": rounds,
        "burst_updates": BURST_UPDATES,
        "smoke": smoke_mode(),
        "workload": (
            "conflict-free burst (distinct items, one writer each), then "
            "quiescence; loop = run_round + converged + observe"
        ),
        "configs": configs,
        "quiescent": run_quiescent_suite(seed=seed),
    }


def _build_quiescent_sim(
    *,
    n_nodes: int,
    n_items: int,
    protocol: str,
    seed: int,
) -> ClusterSimulation:
    items = make_items(n_items)
    sim = ClusterSimulation(
        make_factory(protocol, n_nodes, items),
        n_nodes,
        items,
        selector=RingSelector(),
        seed=seed,
        sanitize=False,
    )
    burst = min(BURST_UPDATES, n_items)
    for k in range(burst):
        sim.apply_update(k % n_nodes, items[k], Put(f"b{k}".encode()))
    return sim


def run_quiescent_config(
    *,
    n_nodes: int = QUIESCENT_NODES,
    n_items: int = QUIESCENT_ITEMS,
    protocol: str = "dbvv",
    seed: int = 7,
    timed_rounds: int | None = None,
) -> dict[str, Any]:
    """The quiescent-heavy configuration, run once.

    Burst, converge (timed as its own phase), a short warm-up window,
    then ``timed_rounds`` of pure quiescence.  The quiescent figure is the
    steady state of every long staleness experiment; the warm-up is
    excluded from it the same way a cache benchmark excludes its first
    pass.
    """
    timed_rounds = (
        active_quiescent_rounds() if timed_rounds is None else timed_rounds
    )
    sim = _build_quiescent_sim(
        n_nodes=n_nodes, n_items=n_items, protocol=protocol, seed=seed
    )

    def tick() -> None:
        sim.run_round()
        sim.converged()
        sim.ground_truth.observe(float(sim.round_no), sim.nodes)

    t0 = time.perf_counter()
    converge_rounds = 0
    while not sim.converged():
        tick()
        converge_rounds += 1
        if converge_rounds > 10 * n_nodes:
            raise RuntimeError("quiescent config failed to converge")
    converge_s = time.perf_counter() - t0

    for _ in range(QUIESCENT_WARM_ROUNDS):
        tick()

    t0 = time.perf_counter()
    for _ in range(timed_rounds):
        tick()
    quiescent_s = time.perf_counter() - t0
    return {
        "phases": {
            "converge": {
                "rounds": converge_rounds,
                "per_round_ms": round(converge_s / converge_rounds * 1e3, 4)
                if converge_rounds
                else 0.0,
            },
            "quiescent": {
                "rounds": timed_rounds,
                "per_round_ms": round(quiescent_s / timed_rounds * 1e3, 4),
            },
        },
        "quiescent_rounds_per_sec": round(timed_rounds / quiescent_s, 2),
    }


def run_quiescent_suite(*, protocol: str = "dbvv", seed: int = 7) -> dict[str, Any]:
    """The quiescent-heavy configuration: what an idle n=128 round of
    real O(1) sessions costs.  Its one arm charges modelled bytes, as
    every simulation does."""
    return {
        "n_nodes": QUIESCENT_NODES,
        "n_items": QUIESCENT_ITEMS,
        "selector": "ring",
        "warm_rounds": QUIESCENT_WARM_ROUNDS,
        "timed_rounds": active_quiescent_rounds(),
        "arms": {"modelled": run_quiescent_config(protocol=protocol, seed=seed)},
    }


def profile_quiescent(top: int = 25) -> None:
    """``--profile``: cProfile the quiescent round loop and print the
    top functions by internal time."""
    import cProfile
    import io
    import pstats

    sim = _build_quiescent_sim(
        n_nodes=QUIESCENT_NODES, n_items=QUIESCENT_ITEMS,
        protocol="dbvv", seed=7
    )
    while not sim.converged():
        sim.run_round()
    for _ in range(QUIESCENT_WARM_ROUNDS):
        sim.run_round()
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(active_quiescent_rounds()):
        sim.run_round()
        sim.converged()
        sim.ground_truth.observe(float(sim.round_no), sim.nodes)
    profiler.disable()
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats("tottime").print_stats(top)
    print(buffer.getvalue())


def write_report(report: dict[str, Any], path: Path | None = None) -> Path:
    path = path or Path(__file__).resolve().parent.parent / REPORT_NAME
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/scale_harness.py",
        description=f"Round-loop cost over the n x N grid; writes {REPORT_NAME}.",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a cProfile of the quiescent round loop instead (writes nothing)",
    )
    if parser.parse_args(argv).profile:
        profile_quiescent()
        return
    report = run_grid()
    path = write_report(report)
    for cfg in report["configs"]:
        inc = cfg["incremental"]
        print(
            f"n={cfg['n_nodes']:4d} N={cfg['n_items']:5d}  "
            f"{inc['per_round_ms']:8.3f} ms/round  "
            f"(converge {inc['phases']['converge']['per_round_ms']:.3f} / "
            f"steady {inc['phases']['steady_state']['per_round_ms']:.3f})"
        )
    for mode, arm in report["quiescent"]["arms"].items():
        print(
            f"quiescent n={QUIESCENT_NODES} [{mode}]  "
            f"{arm['phases']['quiescent']['per_round_ms']:.3f} ms/round"
        )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
