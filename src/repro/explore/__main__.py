"""Command-line entry point: ``python -m repro.explore``.

Two modes:

* **explore** (default) — exhaustively search one bounded configuration
  and report explored/pruned counts, including how many branches sleep
  sets and the state cache pruned.  On a violation, the schedule is
  minimized and written as a replayable JSON trace; exit code 1.
* **replay** (``--replay trace.json``) — re-run a saved trace through
  the oracle.  Exit 0 when the replay matches the trace's expectation
  (violation reproduces, or a clean witness stays clean), 1 otherwise.

Exit codes: 0 = clean / replay as expected, 1 = violation found (or
replay mismatch), 2 = usage or internal error.
"""

from __future__ import annotations

import argparse
import sys

from contextlib import ExitStack

from repro.errors import ReplicationError
from repro.explore.engine import ExplorationResult, Explorer
from repro.explore.minimize import minimize_schedule
from repro.explore.mutations import MUTATIONS, apply_mutation
from repro.explore.trace import Trace, load_trace, replay_trace, save_trace
from repro.explore.world import (
    EXPLORABLE_PROTOCOLS,
    ExplorationConfig,
    default_items,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description=(
            "Bounded exhaustive exploration of the replication protocols "
            "with an invariant oracle at every state."
        ),
    )
    parser.add_argument(
        "--protocol",
        default="dbvv",
        choices=sorted(EXPLORABLE_PROTOCOLS),
        help="protocol to explore (default: dbvv)",
    )
    parser.add_argument(
        "--differential",
        default="",
        help=(
            "comma-separated extra protocols driven through the same "
            "schedules for cross-checking (e.g. per-item-vv,wuu-bernstein)"
        ),
    )
    parser.add_argument("--nodes", type=int, default=3, help="cluster size (default 3)")
    parser.add_argument("--items", type=int, default=3, help="schema size (default 3)")
    parser.add_argument("--depth", type=int, default=4, help="schedule length bound k")
    parser.add_argument("--updates", type=int, default=2, help="update budget (default 2)")
    parser.add_argument("--faults", type=int, default=1, help="mid-session fault budget")
    parser.add_argument("--crashes", type=int, default=1, help="crash budget")
    parser.add_argument("--oob", type=int, default=1, help="out-of-bound fetch budget")
    parser.add_argument(
        "--no-fault-variants",
        action="store_true",
        help="drop the mid-session drop/crash session variants from the alphabet",
    )
    parser.add_argument(
        "--trace-out",
        default="explore-counterexample.json",
        help="where to write the minimized counterexample trace on violation",
    )
    parser.add_argument(
        "--replay",
        metavar="TRACE",
        default=None,
        help="replay a saved trace instead of exploring",
    )
    parser.add_argument(
        "--mutate",
        default=None,
        choices=sorted(MUTATIONS),
        help=(
            "inject a known protocol bug for the duration of the run "
            "(mutation smoke testing; see repro.explore.mutations)"
        ),
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> ExplorationConfig:
    differential = tuple(
        name.strip() for name in args.differential.split(",") if name.strip()
    )
    return ExplorationConfig(
        protocol=args.protocol,
        n_nodes=args.nodes,
        items=default_items(args.items),
        max_updates=args.updates,
        max_faults=args.faults,
        max_crashes=args.crashes,
        max_oob=args.oob,
        fault_variants=not args.no_fault_variants,
        differential=differential,
    )


def _print_stats(result: ExplorationResult) -> None:
    stats = result.stats
    considered = stats.branches_considered()
    print(f"states explored:     {stats.states_explored}")
    print(f"transitions:         {stats.transitions}")
    print(
        f"pruned (sleep sets): {stats.pruned_sleep} "
        f"({stats.sleep_share():.1%} of {considered} considered branches)"
    )
    print(
        f"pruned (visited):    {stats.pruned_visited} "
        f"(total pruned {stats.pruned_share():.1%})"
    )
    print(
        f"closure checks:      {stats.closure_runs} runs, "
        f"{stats.closure_memo_hits} memo hits"
    )


def _run_explore(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    label = config.protocol
    if config.differential:
        label += " vs " + ", ".join(config.differential)
    print(
        f"exploring {label}: n={config.n_nodes} items={len(config.items)} "
        f"depth={args.depth} budgets[updates={config.max_updates} "
        f"faults={config.max_faults} crashes={config.max_crashes} "
        f"oob={config.max_oob}]"
    )
    if args.mutate is not None:
        print(
            f"mutation injected: {args.mutate} "
            f"({MUTATIONS[args.mutate].summary})"
        )
    result = Explorer(config, args.depth).run()
    _print_stats(result)
    if result.violation is None:
        print(
            f"result: exhaustive to depth {args.depth}, "
            "no invariant violations"
        )
        return 0
    print(f"VIOLATION: {result.violation.describe()}")
    print("minimizing counterexample...")
    minimized, violation = minimize_schedule(config, result.schedule)
    print(f"minimized to {len(minimized)} action(s):")
    for index, action in enumerate(minimized, 1):
        print(f"  {index}. {action.describe()}")
    trace = Trace(
        config,
        tuple(minimized),
        violation,
        note="minimized counterexample from python -m repro.explore",
    )
    save_trace(trace, args.trace_out)
    print(f"replayable trace written to {args.trace_out}")
    print(f"  (replay with: python -m repro.explore --replay {args.trace_out})")
    return 1


def _run_replay(args: argparse.Namespace) -> int:
    trace = load_trace(args.replay)
    print(
        f"replaying {args.replay}: {len(trace.schedule)} action(s) on "
        f"{trace.config.protocol}, n={trace.config.n_nodes}, "
        f"items={len(trace.config.items)}"
    )
    for index, action in enumerate(trace.schedule, 1):
        print(f"  {index}. {action.describe()}")
    report = replay_trace(trace)
    print(f"replay: {report.summary()}")
    if trace.violation is None:
        expected_clean = report.violation is None
        print("trace recorded no violation; replay "
              + ("matches" if expected_clean else "DIVERGES"))
        return 0 if expected_clean else 1
    if report.matches_expected:
        print(f"reproduces the recorded {trace.violation.check!r} violation")
        return 0
    if report.reproduced:
        print(
            f"violation kind changed: recorded {trace.violation.check!r}, "
            f"replayed {report.violation.check!r}"  # type: ignore[union-attr]
        )
        return 0
    print(
        f"recorded {trace.violation.check!r} violation did NOT reproduce "
        "(fixed, or the trace is stale)"
    )
    return 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with ExitStack() as stack:
            if args.mutate is not None:
                stack.enter_context(apply_mutation(args.mutate))
            if args.replay is not None:
                return _run_replay(args)
            return _run_explore(args)
    except (ReplicationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
