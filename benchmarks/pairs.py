"""Interleaved parent/change pairs of the cluster benchmark, judged by the rule.

``python -m benchmarks.pairs --parent DIR --change DIR --workload NAME --pairs N``

Runs ``python -m benchmarks.net --workload NAME --seed S`` N times in each
of two checkouts, one run of each per *pair*, alternating which side goes
first (the box moves between a quiet and a ≈ 1.4 × slower regime every few
minutes; a pair shares its regime, a sequence of one side then the other
does not), each pair on its own seed.  Per end-to-end metric of the change's
``BENCHMARK.json`` it prints both sides' median and quartiles, the median of
the per-pair ratios change ÷ parent with its base (the parent's median),
wins – ties – losses, and two verdicts:

* ``within`` / ``WORSE`` / ``unresolved`` — the change's median is no worse
  than the parent's by more than the metric's bound; where the parent's own
  quartiles lie further apart than the bound the metric is *unresolved*,
  not unchanged, unless every run of the change beats every run of the
  parent;
* ``GAIN`` — the change wins at least nine tenths of the pairs (ties count
  for neither side) **and** the medians differ by more than the distance
  between the parent's quartiles.  Only this supports a claim.

A run that exits non-zero, is incorrect or fails an op is reported and
makes the exit status 1; a larger share of failed ops is never a gain.
With ``--claim METRIC`` the exit status is 0 only when that metric's
verdict is ``GAIN``, no metric is ``WORSE`` and neither side failed an op
or a run; the last line says which of the three decided.
Budget: a run is ≈ 16–32 s, so ten pairs of ``mem_small_kv`` ≈ 6 min.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from typing import Any

__all__ = ["Verdict", "judge", "parse_result", "render", "report", "run_pairs", "main"]


def parse_result(stdout: str) -> dict[str, Any]:
    """The result object a benchmark run prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    result: dict[str, Any] = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError(f"result line has no {key!r}")
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(median, first quartile, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return median(values), q1, q3


@dataclass(frozen=True)
class Verdict:
    """One end-to-end metric over all pairs; ``ratio`` is change ÷ parent."""

    metric: str
    unit: str
    bound: float
    parent: tuple[float, float, float]  # median, q1, q3
    change: tuple[float, float, float]
    ratio: float
    wins: int
    ties: int
    losses: int
    regression: str  # "within" | "WORSE" | "unresolved"
    gain: bool


def judge(
    metric: str,
    unit: str,
    bound: float,
    parent: list[float],
    change: list[float],
    lower_is_better: bool = True,
) -> Verdict:
    """Apply choosing-metrics §6.5 and §8 to one metric's paired readings."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"{metric}: need the same non-zero number of readings per side")
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_mid, p_q1, p_q3 = _quartiles(parent)
    c_mid, c_q1, c_q3 = _quartiles(change)
    ratio = median(c / p if p else float("inf") for p, c in zip(parent, change))
    spread = p_q3 - p_q1
    worse_by = sign * (c_mid - p_mid) / abs(p_mid) if p_mid else 0.0
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if worse_by > bound:
        regression = "WORSE"
    elif p_mid and spread / abs(p_mid) > bound and not every_run_better:
        regression = "unresolved"
    else:
        regression = "within"
    decided = len(parent) - ties
    gain = decided > 0 and wins >= 0.9 * decided and sign * (p_mid - c_mid) > spread
    return Verdict(
        metric, unit, bound, (p_mid, p_q1, p_q3), (c_mid, c_q1, c_q3),
        ratio, wins, ties, len(parent) - wins - ties, regression, gain,
    )  # fmt: skip


def render(workload: str, verdicts: list[Verdict], pairs: int) -> str:
    """The table, one row per metric."""
    rows = [
        f"== {workload}: {pairs} interleaved pair(s), ratio = change ÷ parent (median of pairs)",
        f"  {'metric':<28} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} "
        f"{'ratio':>6}  {'w-t-l':<8} {'bound':>5}  verdict",
    ]
    for v in verdicts:
        sides = [f"{mid:>10.5g} [{q1:>9.5g}, {q3:>9.5g}]".ljust(36) for mid, q1, q3 in (v.parent, v.change)]
        verdict = v.regression + (" GAIN" if v.gain else "")
        rows.append(
            f"  {v.metric:<28} {sides[0]} {sides[1]} {v.ratio:>6.3f}  "
            f"{f'{v.wins}-{v.ties}-{v.losses}':<8} {v.bound:>5.2f}  {verdict}  ({v.unit})"
        )
    return "\n".join(rows)


def _one_run(checkout: Path, workload: str, seed: int) -> dict[str, Any]:
    command = [sys.executable, "-m", "benchmarks.net", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=900)
    try:
        # An incorrect run exits 1 but still prints its result line.
        return parse_result(done.stdout)
    except ValueError:
        raise RuntimeError(
            f"{' '.join(command)} in {checkout} exited {done.returncode} without a result:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        ) from None


def run_pairs(
    parent: Path, change: Path, workload: str, pairs: int, seed: int
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Result objects of each side, pair by pair; even pairs run the parent first."""
    results: dict[Path, list[dict[str, Any]]] = {parent: [], change: []}
    for pair in range(pairs):
        order = (parent, change) if pair % 2 == 0 else (change, parent)
        for checkout in order:
            results[checkout].append(_one_run(checkout, workload, seed + pair))
            print(f"  pair {pair + 1}/{pairs}: {'parent' if checkout is parent else 'change'} done",
                  file=sys.stderr, flush=True)  # fmt: skip
    return results[parent], results[change]


def report(
    workload: str,
    end_to_end: list[dict[str, Any]],
    parent: list[dict[str, Any]],
    change: list[dict[str, Any]],
    claim: str | None = None,
) -> tuple[str, int]:
    """The table, each side's failures, the claim's line, and the exit status."""
    verdicts = [
        judge(
            entry["name"], entry["unit"], entry["bound"],
            [run["metrics"][entry["name"]]["value"] for run in parent],
            [run["metrics"][entry["name"]]["value"] for run in change],
            entry["better"] == "lower",
        )
        for entry in end_to_end
    ]  # fmt: skip
    lines = [render(workload, verdicts, len(parent))]
    unsound = False
    for side, runs in (("parent", parent), ("change", change)):
        bad, incorrect = sum(r["failed"] for r in runs), sum(not r["correct"] for r in runs)
        lines.append(f"  {side}: {bad} of {sum(r['attempted'] for r in runs)} ops failed, "
                     f"{incorrect} incorrect run(s)")  # fmt: skip
        unsound = unsound or bool(bad or incorrect)
    worse = [v.metric for v in verdicts if v.regression == "WORSE"]
    refused = ""
    if unsound:
        refused = "a side failed an op or a run"
    elif worse:
        refused = f"WORSE: {', '.join(worse)}"
    elif claim is not None and not any(v.gain for v in verdicts if v.metric == claim):
        refused = f"{claim} is not a GAIN"
    if claim is not None:
        lines.append(f"  claim {claim} on {workload}: " + (f"REFUSED ({refused})" if refused else "HOLDS"))
    return "\n".join(lines), 1 if refused else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.pairs", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)  # fmt: skip
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="pair k runs both sides on seed + k")
    parser.add_argument("--claim", metavar="METRIC", help="exit 0 only if this metric is a GAIN")
    args = parser.parse_args(argv)
    if args.parent.resolve() == args.change.resolve():
        parser.error("--parent and --change are the same directory")
    contract = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.claim is not None and args.claim not in {e["name"] for e in contract["end_to_end"]}:
        parser.error(f"--claim {args.claim}: not an end-to-end metric of BENCHMARK.json")
    parent, change = run_pairs(
        args.parent.resolve(), args.change.resolve(), args.workload, args.pairs, args.seed
    )
    text, status = report(args.workload, contract["end_to_end"], parent, change, args.claim)
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
