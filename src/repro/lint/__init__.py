"""Protocol-aware static analysis for the epidemic-replication codebase.

Generic linters know nothing about DBVV dominance, the one-record-per-
item log rule, or the determinism contract the experiments depend on.
This package is an AST-based checker for exactly those protocol-shaped
bug classes.  ``python -m repro.lint --list-rules`` prints the rules;
``docs/DEVELOPING.md`` is the catalogue, with a table of what each rule
has caught or guards that no test checks.

Run it over the tree with ``python -m repro.lint src tests benchmarks``.
Suppress a finding on one line with ``# lint: skip=<ID>`` (comma-
separated for several) and a whole file with ``# lint: skip-file``;
R7, R9 and R16 findings are suppressed only by their reason pragmas,
``# pragma: full-scan <reason>``, ``# pragma: blocking <reason>`` and
``# pragma: fresh-alloc <reason>``.  Each run also audits the
suppressions: a pragma whose line no longer produces the finding it
suppresses, or a skip naming no registered rule, is reported under the
pseudo rule id ``PRAGMA``.

Layout: :mod:`repro.lint.engine` parses each file once, runs each
applicable rule once, and applies and audits the pragmas;
:mod:`repro.lint.flow` holds the AST shapes the rules share and the
one forward statement walker, whose two domains are R10's atomicity
scan and the taint engine (:mod:`repro.lint.taint`) behind R13–R15;
:mod:`repro.lint.rules` is the registry.
"""

from __future__ import annotations

from repro.lint.engine import (
    FileScope,
    LintRule,
    Violation,
    lint_file,
    lint_paths,
    make_scope,
)
from repro.lint.rules import ALL_RULES, rules_by_id

__all__ = [
    "ALL_RULES",
    "FileScope",
    "LintRule",
    "Violation",
    "lint_file",
    "lint_paths",
    "make_scope",
    "rules_by_id",
]
