"""Does the benchmark agree with itself?  ``python -m benchmarks.net.agree``.

Runs ``--sets`` sets of ``--runs`` runs of the same code on every workload
(each run another seed), and prints per workload × end-to-end metric the
median and quartiles of each set, each set's spread (distance between the
first and third quartile as a share of the median, the quantity the bound
in ``BENCHMARK.json`` is held against) and how far the last set's median
sits from the first's.  A metric is flagged when a spread or the
disagreement exceeds its bound, and warned about when a spread exceeds a
third of it.  Exits 1 when anything is flagged or a run was incorrect.

A timed metric that cannot hold its bound here is demoted to per-layer in
``BENCHMARK.json``, not widened.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Any

from benchmarks.net.bench import REPO_ROOT
from benchmarks.net.cli import load_contract
from benchmarks.net.measure import summarize


def _one_run(workload: str, seed: int, seconds: int) -> dict[str, Any]:
    command = [
        sys.executable, "-m", "benchmarks.net", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    result: dict[str, Any] = json.loads(done.stdout.strip().splitlines()[-1])
    return result


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    middle, q1, q3, _n = summarize(values)
    return middle, q1, q3, (q3 - q1) / middle if middle else 0.0


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.net.agree", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)  # fmt: skip
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    seconds = contract["run_seconds"]
    flagged = 0
    for workload in (entry["name"] for entry in contract["workloads"]):
        values: list[dict[str, list[float]]] = []
        for set_index in range(args.sets):
            by_metric: dict[str, list[float]] = {}
            for run_index in range(args.runs):
                seed = 1000 * set_index + run_index + 1
                result = _one_run(workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    print(f"!! {workload} seed {seed}: incorrect run")
                    flagged += 1
                for metric, reading in result["metrics"].items():
                    by_metric.setdefault(metric, []).append(reading["value"])
            values.append(by_metric)
        print(f"== {workload}: {args.sets} sets x {args.runs} runs, --seconds {seconds}")
        print(f"  {'metric':<28} {'bound':>6}  " + "  ".join(
            f"{'set ' + str(k + 1) + ' median [q1, q3] spread':<46}" for k in range(args.sets)
        ) + "  disagreement")  # fmt: skip
        for entry in contract["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            cells, notes = [], []
            stats = [_spread(by_metric[metric]) for by_metric in values]
            for middle, q1, q3, spread in stats:
                cells.append(f"{middle:>11.5g} [{q1:>10.5g}, {q3:>10.5g}] {spread:>7.2%}".ljust(46))
                # setup_s is held to its bound on medians only.
                if spread > bound and metric != "setup_s":
                    notes.append("SPREAD > BOUND")
                elif spread > bound / 3:
                    notes.append("spread > bound/3")
            first, last = stats[0][0], stats[-1][0]
            disagreement = abs(last - first) / first if first else 0.0
            if disagreement > bound:
                notes.append("SETS DISAGREE")
            flagged += sum(note.isupper() for note in notes)
            print(f"  {metric:<28} {bound:>6.2f}  " + "  ".join(cells)
                  + f"  {disagreement:>7.2%}  {' '.join(dict.fromkeys(notes))}")  # fmt: skip
        sys.stdout.flush()
    print("agree: " + ("ok" if not flagged else f"{flagged} problem(s)"))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
