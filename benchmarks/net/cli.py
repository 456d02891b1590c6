"""Command line of the benchmark.

::

    python -m benchmarks.net --workload <name|all> --seed <int>
        [--seconds <s>] [--trace [0|1]] [--smoke] [--list]

Prints every metric of the chosen kind by name with its unit (median,
quartiles and n of its samples), the meta block, any oracle violation,
and as the last line of standard output one JSON object::

    {"correct": true, "attempted": 51234, "failed": 0,
     "metrics": {"put_cpu_us": {"value": 44.1, "unit": "us"}, ...}}

``--trace 0`` (the default) measures the end-to-end metrics, ``--trace 1``
the per-layer ones.  The exit status is 0 only when the oracle passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path
from statistics import mean, pstdev
from typing import Any

from benchmarks.net.bench import OUT_DIR, REPO_ROOT, Run
from benchmarks.net.layers import run_layers
from benchmarks.net.measure import summarize
from benchmarks.net.workloads import WORKLOADS, smoke_variant

__all__ = ["main", "run_workload", "load_contract"]


def load_contract() -> dict[str, Any]:
    """``BENCHMARK.json``: the one list of metric names, units and bounds."""
    contract: dict[str, Any] = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return contract


def run_workload(
    name: str, seed: int, seconds: float, layers: bool, smoke: bool
) -> dict[str, Any]:
    """Run one workload; returns the result object plus detail and meta."""
    spec = smoke_variant(WORKLOADS[name]) if smoke else WORKLOADS[name]
    contract = load_contract()
    run = Run(spec, seed, seconds, smoke)
    computed: dict[str, float] = {}
    with run.resources():
        if layers:
            computed = run_layers(run)
        else:
            run.run_end_to_end()
        meta = _meta(run)
    wanted = contract["per_layer" if layers else "end_to_end"]
    metrics: dict[str, dict[str, Any]] = {}
    detail: dict[str, tuple[float, float, float, int]] = {}
    for entry in wanted:
        metric = entry["name"]
        if metric in computed:
            value, spread = computed[metric], (computed[metric], computed[metric], computed[metric], 1)
        else:
            spread = _from_samples(metric, run.samples)
            value = spread[0]
        metrics[metric] = {"value": value, "unit": entry["unit"]}
        detail[metric] = spread
    return {
        "workload": name,
        "correct": run.oracle.correct,
        "attempted": run.oracle.attempted,
        "failed": run.oracle.failed,
        "metrics": metrics,
        "detail": detail,
        "problems": run.oracle.problems,
        "meta": meta,
    }


def _from_samples(metric: str, samples: dict[str, list[float]]) -> tuple[float, float, float, int]:
    if metric == "cpu.put_user_share":
        user, system = sum(samples["cpu.put_user_ticks"]), sum(samples["cpu.put_sys_ticks"])
        share = 100.0 * user / (user + system) if user + system else 0.0
        return share, share, share, len(samples["cpu.put_user_ticks"])
    if metric.startswith("speed.") and metric.endswith("_cv"):
        rates = samples[metric[: -len("_cv")] + "_rate"]
        cv = 100.0 * pstdev(rates) / mean(rates)
        return cv, cv, cv, len(rates)
    if metric not in samples:
        raise KeyError(f"the run produced no sample of {metric!r}")
    return summarize(samples[metric])


def _meta(run: Run) -> dict[str, Any]:
    rates = {
        f"cpu{cpu}": [
            round(mean(run.samples[f"speed.cpu{slot}_rate"])),
            round(mean(run.samples[f"speed.cpu{slot}_session_rate"])),
        ]
        for slot, cpu in enumerate(run.node_cpus)
        if f"speed.cpu{slot}_rate" in run.samples
    }
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "fs_type": _fs_type(OUT_DIR),
        "pinned": os.sched_getaffinity(0) == {run.harness_cpu},
        "node_cpus": run.node_cpus,
        "harness_cpu": run.harness_cpu,
        "speedometer_rates_per_s": rates,  # [compute, session] per node CPU
        "seed": run.seed,
        "seconds": run.seconds,
        "rounds_dropped": run.rounds_dropped,  # by the --seconds guard; 0 on a sound run
    }


def _git_sha() -> str:
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (REPO_ROOT / ".git" / text[5:]).read_text().strip()[:12]
        return text[:12]
    except OSError:
        return "not a git checkout"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fs_type(path: Path) -> str:
    best, fs_type = "", "unknown"
    target = str(path.resolve())
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            _device, mount, kind = line.split()[:3]
            if target.startswith(mount.rstrip("/") + "/") and len(mount) >= len(best):
                best, fs_type = mount, kind
    except OSError:
        pass
    return fs_type


def _print_report(result: dict[str, Any]) -> None:
    print(f"== {result['workload']}")
    for metric, reading in result["metrics"].items():
        value, q1, q3, n = result["detail"][metric]
        spread = f"  [q1 {q1:.6g}  q3 {q3:.6g}  n={n}]" if n > 1 else ""
        print(f"  {metric:<42} {value:>14.6g} {reading['unit']:<8}{spread}")
    print("  meta: " + json.dumps(result["meta"], sort_keys=True))
    for problem in result["problems"]:
        print(f"  ORACLE: {problem}")
    verdict = "passed" if result["correct"] else "FAILED"
    print(f"  oracle {verdict}: {result['attempted']} ops attempted, {result['failed']} failed")


def _public(result: dict[str, Any]) -> dict[str, Any]:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.net", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)  # fmt: skip
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="upper guard: rounds are dropped once they took twice this")  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: the layer run (per-layer metrics, span file)")  # fmt: skip
    parser.add_argument("--smoke", action="store_true", help="tiny counts, a few seconds")
    parser.add_argument("--list", action="store_true", help="list the workloads and exit")
    args = parser.parse_args(argv)
    if args.list:
        for workload in WORKLOADS.values():
            print(f"{workload.name}: {workload.why}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [
        run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        for name in names
    ]
    for result in results:
        _print_report(result)
    if len(results) == 1:
        print(json.dumps(_public(results[0])))
    else:
        print(json.dumps({result["workload"]: _public(result) for result in results}))
    return 0 if all(result["correct"] for result in results) else 1
