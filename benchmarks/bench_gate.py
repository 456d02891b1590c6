"""CI perf-regression gate: smoke harnesses vs checked-in baselines.

``python benchmarks/bench_gate.py`` runs the scale and wire harnesses
in smoke mode, flattens each report into named metrics, and diffs them
against ``benchmarks/baselines/{scale_smoke,wire_smoke}.json``.  Any
violation prints, lands in the machine-readable gate report (uploaded
as a CI artifact, with the scale harness's own report beside it), and
fails the process — so a perf regression fails the PR the same way a
lint or type error does.

Metrics come in three kinds, inferred from the metric name:

* ``exact``  — deterministic counters and byte counts
  (``messages_sent``, ``converge_round``, ``*_bytes_per_session``...).
  Seeded runs make these machine-independent, so *any* drift is a
  behaviour change: either a regression, or an intentional protocol
  change that must refresh the baselines deliberately (``--update``)
  and justify the diff in review.
* ``min``    — throughputs (``*_mb_s``, ``*_per_sec``): fail when
  current < baseline * (1 - tolerance).
* ``max``    — wall-clock costs (``*per_round_ms``): fail when
  current > baseline * (1 + tolerance).

Timed metrics are gated one-sided — the gate exists to catch
slowdowns; an improvement is a reason to refresh baselines, not to
fail CI.  The tolerance (default ±50%, ``REPRO_BENCH_TOLERANCE``) is
deliberately loose: single-core CI runners show ±40% wall-clock noise
run to run, and the exact-kind counters carry the precise signal.

``python benchmarks/bench_gate.py --net-smoke <result>`` gates a third
report instead, one it does not produce itself: the output of
``python -m benchmarks.net --workload all --smoke`` (the file's last
line is the result object).  Only that run's exact counts are compared
— ``wire_bytes_per_item`` and ``wire_bytes_per_idle_sync`` per workload,
against ``benchmarks/baselines/net_smoke.json`` — its timed metrics stay
printed-only (``net-bench-smoke`` in CI).

Baselines are regenerated deliberately with
``python benchmarks/bench_gate.py --update`` (see DEVELOPING.md,
"Performance discipline") — never automatically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

__all__ = [
    "BASELINE_DIR",
    "collect_net_smoke_metrics",
    "collect_scale_metrics",
    "collect_wire_metrics",
    "compare",
    "default_tolerance",
    "metric_kind",
    "run_gate",
]

BASELINE_DIR = Path(__file__).resolve().parent / "baselines"
GATE_REPORT_NAME = "bench-gate-report.json"
#: The scale harness's own (smoke) report, written beside the gate report.
SCALE_REPORT_NAME = "bench-gate-scale.json"

# Suffix → kind.  First match wins; a metric name matching no suffix is
# a programming error (hard KeyError), so extraction and gating cannot
# silently drift apart.
_EXACT_SUFFIXES = (
    "messages_sent",
    "converge_round",
    "bytes_per_session",
    "wire_bytes_per_item",
    "wire_bytes_per_idle_sync",
)
_MIN_SUFFIXES = ("_mb_s", "_per_sec")
_MAX_SUFFIXES = ("per_round_ms",)


def default_tolerance() -> float:
    return float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.50"))


def metric_kind(name: str) -> str:
    if name.endswith(_EXACT_SUFFIXES):
        return "exact"
    if name.endswith(_MIN_SUFFIXES):
        return "min"
    if name.endswith(_MAX_SUFFIXES):
        return "max"
    raise KeyError(f"metric {name!r} matches no kind suffix")


def collect_scale_metrics(report: dict[str, Any]) -> dict[str, Any]:
    """Flatten a scale-harness report into gated metrics."""
    metrics: dict[str, Any] = {}
    for cfg in report["configs"]:
        key = f"n{cfg['n_nodes']}_N{cfg['n_items']}"
        inc = cfg["incremental"]
        metrics[f"{key}.incremental.messages_sent"] = inc["messages_sent"]
        metrics[f"{key}.incremental.converge_round"] = inc["converge_round"]
        metrics[f"{key}.incremental.per_round_ms"] = inc["per_round_ms"]
    for mode, arm in report["quiescent"]["arms"].items():
        metrics[f"quiescent.{mode}.per_round_ms"] = arm["phases"][
            "quiescent"
        ]["per_round_ms"]
    return metrics


def collect_wire_metrics(report: dict[str, Any]) -> dict[str, Any]:
    """Flatten a wire-harness report into gated metrics."""
    throughput = report["throughput"]
    metrics: dict[str, Any] = {
        "throughput.session_frames.roundtrip_mb_s": throughput[
            "session_frames"
        ]["roundtrip_mb_s"],
        "throughput.session_frames_full_vv.roundtrip_mb_s": throughput[
            "session_frames_full_vv"
        ]["roundtrip_mb_s"],
        "throughput.small_frames_per_sec": throughput["small_frames_per_sec"],
    }
    for arm in ("quiescent", "propagating"):
        bytes_arm = report["session_bytes"][arm]
        metrics[f"session_bytes.{arm}.delta_vv_bytes_per_session"] = (
            bytes_arm["delta_vv_bytes_per_session"]
        )
        metrics[f"session_bytes.{arm}.full_vv_bytes_per_session"] = (
            bytes_arm["full_vv_bytes_per_session"]
        )
    return metrics


#: The system benchmark's exact counts (``BENCHMARK.json`` names).
NET_SMOKE_METRICS = ("wire_bytes_per_item", "wire_bytes_per_idle_sync")


def collect_net_smoke_metrics(results: dict[str, Any]) -> dict[str, Any]:
    """Flatten ``benchmarks.net --workload all --smoke``'s result object
    (workload → result) into its gated, machine-independent counts."""
    return {
        f"{workload}.{metric}": result["metrics"][metric]["value"]
        for workload, result in results.items()
        for metric in NET_SMOKE_METRICS
    }


def compare(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float,
) -> list[dict[str, Any]]:
    """Diff current metrics against a baseline; return violations.

    Every baseline metric must be present and within band; every
    current metric must be in the baseline (a new metric means the
    baselines are stale and need a deliberate ``--update``).
    """
    violations: list[dict[str, Any]] = []
    for name in sorted(baseline):
        base = baseline[name]
        if name not in current:
            violations.append(
                {"metric": name, "kind": "missing", "baseline": base,
                 "current": None, "why": "metric missing from current run"}
            )
            continue
        kind = metric_kind(name)
        value = current[name]
        if kind == "exact":
            if value != base:
                violations.append(
                    {"metric": name, "kind": kind, "baseline": base,
                     "current": value,
                     "why": "deterministic metric changed"}
                )
        elif kind == "min":
            floor = base * (1 - tolerance)
            if value < floor:
                violations.append(
                    {"metric": name, "kind": kind, "baseline": base,
                     "current": value,
                     "why": f"below floor {floor:.4g} "
                            f"(baseline - {tolerance:.0%})"}
                )
        else:  # max
            ceiling = base * (1 + tolerance)
            if value > ceiling:
                violations.append(
                    {"metric": name, "kind": kind, "baseline": base,
                     "current": value,
                     "why": f"above ceiling {ceiling:.4g} "
                            f"(baseline + {tolerance:.0%})"}
                )
    for name in sorted(set(current) - set(baseline)):
        violations.append(
            {"metric": name, "kind": "unbaselined",
             "baseline": None, "current": current[name],
             "why": "metric not in baseline (run bench_gate.py --update)"}
        )
    return violations


def _baseline_path(harness: str) -> Path:
    return BASELINE_DIR / f"{harness}_smoke.json"


def load_baseline(harness: str) -> dict[str, Any]:
    payload = json.loads(_baseline_path(harness).read_text())
    metrics: dict[str, Any] = payload["metrics"]
    return metrics


def write_baseline(harness: str, metrics: dict[str, Any]) -> Path:
    path = _baseline_path(harness)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "harness": harness,
        "smoke": True,
        "regenerate_with": "python benchmarks/bench_gate.py "
        + ("--net-smoke <result> " if harness == "net" else "")
        + "--update",
        "metrics": metrics,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _collect(
    harness: str,
    net_smoke: Path | None = None,
    scale_report: Path | None = None,
) -> dict[str, Any]:
    """Run one harness in smoke mode and flatten its report (``net``:
    read the report ``benchmarks.net`` already printed; ``scale``: also
    keep the unflattened report at ``scale_report``).

    Imports happen here (not at module top) so the smoke env vars are
    set before the harness modules read them, and so ``--only`` runs
    pay only for what they gate.
    """
    if harness == "net":
        if net_smoke is None:
            raise ValueError("the net harness gates a report: pass net_smoke")
        last_line = net_smoke.read_text().strip().splitlines()[-1]
        return collect_net_smoke_metrics(json.loads(last_line))
    if harness == "scale":
        os.environ["REPRO_SCALE_SMOKE"] = "1"
        import scale_harness

        report = scale_harness.run_grid()
        if scale_report is not None:
            scale_harness.write_report(report, scale_report)
        return collect_scale_metrics(report)
    os.environ["REPRO_CODEC_SMOKE"] = "1"
    import wire_harness

    return collect_wire_metrics(wire_harness.run_all())


def run_gate(
    harnesses: tuple[str, ...] = ("scale", "wire"),
    *,
    update: bool = False,
    tolerance: float | None = None,
    report_path: Path | None = None,
    net_smoke: Path | None = None,
) -> int:
    tolerance = default_tolerance() if tolerance is None else tolerance
    gate_report: dict[str, Any] = {"tolerance": tolerance, "harnesses": {}}
    report_path = report_path or Path.cwd() / GATE_REPORT_NAME
    failed = False
    for harness in harnesses:
        metrics = _collect(
            harness, net_smoke, report_path.with_name(SCALE_REPORT_NAME)
        )
        if update:
            path = write_baseline(harness, metrics)
            print(f"[bench-gate] wrote baseline {path}")
            continue
        violations = compare(metrics, load_baseline(harness), tolerance)
        gate_report["harnesses"][harness] = {
            "metrics": metrics,
            "violations": violations,
        }
        if violations:
            failed = True
            print(f"[bench-gate] {harness}: {len(violations)} violation(s)")
            for violation in violations:
                print(
                    f"  {violation['metric']}: baseline="
                    f"{violation['baseline']} current={violation['current']} "
                    f"({violation['why']})"
                )
        else:
            print(
                f"[bench-gate] {harness}: {len(metrics)} metrics within "
                f"±{tolerance:.0%} of baseline"
            )
    if not update:
        report_path.write_text(json.dumps(gate_report, indent=2) + "\n")
        print(f"[bench-gate] report: {report_path}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baselines from this run instead of gating",
    )
    parser.add_argument(
        "--only", choices=("scale", "wire"),
        help="gate a single harness",
    )
    parser.add_argument(
        "--net-smoke", type=Path, default=None, metavar="RESULT",
        help="gate the exact counts in the output of `python -m "
             "benchmarks.net --workload all --smoke` instead of running "
             "the scale and wire harnesses",
    )
    parser.add_argument(
        "--report", type=Path, default=None,
        help=f"gate-report path (default ./{GATE_REPORT_NAME})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="relative band for timed metrics "
             "(default REPRO_BENCH_TOLERANCE or 0.50)",
    )
    args = parser.parse_args(argv)
    if args.net_smoke is not None:
        if args.only:
            parser.error("--net-smoke gates that report only; drop --only")
        harnesses: tuple[str, ...] = ("net",)
    else:
        harnesses = (args.only,) if args.only else ("scale", "wire")
    return run_gate(
        harnesses,
        update=args.update,
        tolerance=args.tolerance,
        report_path=args.report,
        net_smoke=args.net_smoke,
    )


if __name__ == "__main__":
    raise SystemExit(main())
