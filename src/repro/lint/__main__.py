"""Command-line entry point: ``python -m repro.lint src tests benchmarks``.

Every run does two passes over the tree:

1. **lint** — the rule registry (``--list-rules``), with
   ``# lint: skip=<ID>`` / ``# pragma: full-scan <reason>`` /
   ``# pragma: blocking <reason>`` / ``# pragma: fresh-alloc <reason>``
   suppressions honoured;
2. **pragma audit** — flags suppressions that suppress nothing
   (refactored-away violations leave stale pragmas that silently re-arm
   later) and skips naming no registered rule; reported under the
   pseudo rule id ``PRAGMA``.

Both passes read the same findings: each file is parsed once and each
rule runs on it once.  Findings go to stdout, one ``path:line:col: ID
message`` line each; the summary line goes to stderr.

Exit status 0 when both passes are clean, 1 when any rule fires, a file
fails to parse, or a stale pragma is found, and 2 on usage errors (a
path that does not exist is one) or an internal linter crash (so CI can
tell "the code is bad" from "the linter is bad").
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.engine import Violation, lint_paths
from repro.lint.rules import ALL_RULES, rules_by_id


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Protocol-aware static analysis for the epidemic-replication "
            "codebase (--list-rules prints the rules; see docs/DEVELOPING.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (e.g. src tests benchmarks)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the stale-pragma audit pass",
    )
    return parser


def _per_rule_summary(violations: Sequence[Violation]) -> str:
    """``R3:2 R7:9 PRAGMA:1`` — counts in rule-id order."""
    counts: dict[str, int] = {}
    for violation in violations:
        counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
    order = [rule.rule_id for rule in ALL_RULES] + ["PARSE", "PRAGMA"]
    known = [rid for rid in order if rid in counts]
    extra = sorted(set(counts) - set(order))
    return " ".join(f"{rid}:{counts[rid]}" for rid in known + extra)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.name:<24}{rule.summary}")
        return 0

    if not args.paths:
        parser.error("no paths given (try: python -m repro.lint src tests)")
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")

    if args.select:
        ids = [token.strip() for token in args.select.split(",") if token.strip()]
        try:
            rules = rules_by_id(*ids)
        except KeyError as exc:
            parser.error(f"unknown rule id: {exc.args[0]}")
    else:
        rules = ALL_RULES

    try:
        violations, n_files = lint_paths(args.paths, rules, audit=not args.no_audit)
    except Exception as exc:  # noqa: B902 - exit 2 distinguishes linter crashes
        print(
            f"internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2

    for violation in violations:
        print(violation.render())
    if violations:
        print(
            f"{len(violations)} violation(s) in {n_files} file(s) "
            f"checked  [{_per_rule_summary(violations)}]",
            file=sys.stderr,
        )
        return 1
    print(f"clean: {n_files} file(s) checked", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
