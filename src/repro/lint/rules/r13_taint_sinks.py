"""R13: no untrusted value reaches a protocol-state mutation.

Every frame :mod:`repro.wire` decodes, every client-op payload
:mod:`repro.net` parses, and every WAL record and checkpoint
:mod:`repro.durable` reads back is attacker-writable.  The state machine's mutation sites — the
R4 vector/log mutator inventory plus the ``EpidemicNode`` / session /
journal entry points — must only ever see values that passed a
registered validator from :mod:`repro.core.validate` (the taint
engine's :data:`~repro.lint.taint.SANCTIONED_SANITIZERS`, which add the
two disk-state validators: ``validate_record`` for WAL records, and
``validate_snapshot`` (:mod:`repro.durable.checkpoint`) between
``decode_checkpoint`` and the restore sink ``rebuild_node``).  A cap guard
(``if n > MAX: raise``) bounds a value but does not make it trusted;
only a sanitizer clears taint, and only by reassignment
(``reply = validate_propagation_reply(answer, ...)``).

Scoped to the trust boundary: ``repro.net``, ``repro.durable``, and the
sans-I/O session driver ``repro/core/session.py``.  The simulator-side
core below the boundary receives only in-process objects and is
exercised by R4 instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation
from repro.lint.taint import analyze_module


class TaintedStateSinkRule(LintRule):
    rule_id = "R13"
    name = "tainted-state-sink"
    summary = (
        "wire-decoded values must pass a repro.core.validate sanitizer "
        "before reaching a protocol-state mutation"
    )

    def applies_to(self, scope: FileScope) -> bool:
        return scope.in_subpackage("net", "durable") or (
            scope.in_subpackage("core") and scope.filename == "session.py"
        )

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        report = analyze_module(tree, scope)
        for finding in report.of_kind("sink"):
            yield Violation(
                self.rule_id,
                scope.posix,
                finding.line,
                finding.col + 1,
                finding.detail,
            )
