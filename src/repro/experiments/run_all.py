"""Run every experiment and print every table.

Usage::

    python -m repro.experiments.run_all [--fast] [--csv DIR]

``--fast`` shrinks the sweeps (smaller N, fewer seeds) for a quick
sanity pass; the default parameters are the ones EXPERIMENTS.md reports.
``--csv DIR`` additionally writes every table as ``DIR/e<N>*.csv`` for
external analysis.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments import (
    e1_identical_detection,
    e2_propagation_cost,
    e3_log_bound,
    e4_lotus_comparison,
    e5_failure_recovery,
    e6_out_of_bound,
    e7_convergence,
    e8_traffic,
    e9_read_staleness,
)

__all__ = ["main"]


def main(fast: bool = False) -> None:
    if fast:
        e1_identical_detection.report(
            e1_identical_detection.run(sizes=(100, 1_000))
        ).print()
        e2_propagation_cost.report(
            e2_propagation_cost.run_sweep_n(sizes=(200, 2_000)),
            "E2a — session cost vs N (fast)",
        ).print()
        e2_propagation_cost.report(
            e2_propagation_cost.run_sweep_m(m_values=(1, 32), n_items=1_000),
            "E2b — session cost vs m (fast)",
        ).print()
        e3_log_bound.report(
            e3_log_bound.run(update_counts=(100, 10_000))
        ).print()
        e4_lotus_comparison.report_redundancy(
            e4_lotus_comparison.run_redundancy(sizes=(100, 1_000))
        ).print()
        e4_lotus_comparison.report_conflicts([
            e4_lotus_comparison.run_conflict_scenario("lotus"),
            e4_lotus_comparison.run_conflict_scenario("dbvv"),
        ]).print()
        e5_failure_recovery.report(e5_failure_recovery.run()).print()
        e6_out_of_bound.report(
            e6_out_of_bound.run_replay_sweep(deferred_counts=(0, 8, 64)),
            e6_out_of_bound.run_freshness(),
        ).print()
        e7_convergence.report(
            e7_convergence.run_convergence(node_counts=(4, 16), seeds=(1, 2)),
            e7_convergence.run_conflict_detection(),
        ).print()
        e8_traffic.report(e8_traffic.run(n_items=100, updates=200)).print()
        e9_read_staleness.report(
            e9_read_staleness.run(periods=(2.0, 10.0))
        ).print()
        return

    e1_identical_detection.main()
    e2_propagation_cost.main()
    e3_log_bound.main()
    e4_lotus_comparison.main()
    e5_failure_recovery.main()
    e6_out_of_bound.main()
    e7_convergence.main()
    e8_traffic.main()
    e9_read_staleness.main()
    print_verdicts()


def print_verdicts() -> None:
    """Read the measured scaling laws and print claim-by-claim verdicts
    (see :mod:`repro.analysis.verdicts`)."""
    from repro.analysis.verdicts import (
        verdict_e1,
        verdict_e2_m,
        verdict_e2_n,
        verdict_e7,
    )

    print("Scaling-law verdicts (E1/E2 work read exactly, E7 rounds by least squares):")
    e1_rows = e1_identical_detection.run()
    for protocol in ("dbvv", "per-item-vv", "lotus"):
        print("  " + verdict_e1(e1_rows, protocol).describe())
    e2_n_rows = e2_propagation_cost.run_sweep_n()
    for protocol in ("dbvv", "per-item-vv", "lotus"):
        print("  " + verdict_e2_n(e2_n_rows, protocol).describe())
    e2_m_rows = e2_propagation_cost.run_sweep_m()
    print("  " + verdict_e2_m(e2_m_rows, "dbvv").describe())
    e7_rows = e7_convergence.run_convergence()
    for selector in ("random", "ring"):
        print("  " + verdict_e7(e7_rows, selector).describe())


def export_csv(directory: str | Path, fast: bool = False) -> list[Path]:
    """Write every experiment table as CSV under ``directory``.

    ``fast`` uses the shrunken sweeps.  Returns the files written.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    small = fast

    tables = {
        "e1_identical_detection": e1_identical_detection.report(
            e1_identical_detection.run(sizes=(100, 1_000) if small else
                                       e1_identical_detection.DEFAULT_SIZES)
        ),
        "e2a_cost_vs_n": e2_propagation_cost.report(
            e2_propagation_cost.run_sweep_n(
                sizes=(200, 2_000) if small else e2_propagation_cost.DEFAULT_SIZES
            ),
            "E2a",
        ),
        "e2b_cost_vs_m": e2_propagation_cost.report(
            e2_propagation_cost.run_sweep_m(
                m_values=(1, 32) if small else e2_propagation_cost.DEFAULT_M_VALUES
            ),
            "E2b",
        ),
        "e3_log_bound": e3_log_bound.report(
            e3_log_bound.run(update_counts=(100, 10_000) if small else
                             e3_log_bound.DEFAULT_UPDATE_COUNTS)
        ),
        "e4a_lotus_redundancy": e4_lotus_comparison.report_redundancy(
            e4_lotus_comparison.run_redundancy(
                sizes=(100, 1_000) if small else e4_lotus_comparison.DEFAULT_SIZES
            )
        ),
        "e4b_lotus_conflict": e4_lotus_comparison.report_conflicts([
            e4_lotus_comparison.run_conflict_scenario("lotus"),
            e4_lotus_comparison.run_conflict_scenario("dbvv"),
        ]),
        "e5_failure_recovery": e5_failure_recovery.report(e5_failure_recovery.run()),
        "e6_out_of_bound": e6_out_of_bound.report(
            e6_out_of_bound.run_replay_sweep(),
            e6_out_of_bound.run_freshness(),
        ),
        "e7_convergence": e7_convergence.report(
            e7_convergence.run_convergence(
                node_counts=(4, 16) if small else e7_convergence.DEFAULT_NODE_COUNTS,
                seeds=(1, 2) if small else e7_convergence.DEFAULT_SEEDS,
            ),
            e7_convergence.run_conflict_detection(),
        ),
        "e8_traffic": e8_traffic.report(
            e8_traffic.run(n_items=100, updates=200) if small else e8_traffic.run()
        ),
        "e9_read_staleness": e9_read_staleness.report(
            e9_read_staleness.run(periods=(2.0, 10.0) if small else
                                  e9_read_staleness.DEFAULT_PERIODS)
        ),
    }
    written = []
    for name, table in tables.items():
        path = out / f"{name}.csv"
        path.write_text(table.to_csv())
        written.append(path)
    return written


if __name__ == "__main__":
    args = sys.argv[1:]
    if "--csv" in args:
        directory = args[args.index("--csv") + 1]
        files = export_csv(directory, fast="--fast" in args)
        print(f"wrote {len(files)} CSV files to {directory}")
    else:
        main(fast="--fast" in args)
