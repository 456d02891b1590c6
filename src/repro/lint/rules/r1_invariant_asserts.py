"""R1 — bare ``assert`` in protocol code.

**Historical bug.**  The protocol's safety argument (DESIGN.md §1: DBVV
dominance, the one-record-per-item log rule, bounded log size) was
checked with bare ``assert`` statements, and ``python -O`` strips every
one of them — the deployment configuration most tempted to use ``-O``
(production scale) is exactly the one that silently lost all checking.

**Rule.**  ``repro.core``, ``repro.cluster``, ``repro.baselines``,
``repro.substrate`` and ``repro.durable`` may not contain ``assert``
statements.  Invariant checks raise
:class:`~repro.errors.InvariantViolation`; impossible-message type
narrowing raises :class:`~repro.errors.ProtocolStateError`; malformed
checkpoint input raises
:class:`~repro.durable.checkpoint.SnapshotError` (the checkpoint decoder
and ``validate_snapshot`` check untrusted disk bytes — exactly the
checks ``-O`` must not strip); argument validation raises the specific
:class:`~repro.errors.ReplicationError` subclass.  Tests keep using
``assert`` freely — pytest rewrites them and test suites are never run
under ``-O``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation

__all__ = ["InvariantAssertRule"]


class InvariantAssertRule(LintRule):
    rule_id = "R1"
    name = "invariant-assert"
    summary = (
        "no bare assert in repro.core/cluster/baselines/substrate/durable — "
        "raise InvariantViolation so checks survive python -O"
    )

    def applies_to(self, scope: FileScope) -> bool:
        return scope.in_subpackage(
            "core", "cluster", "baselines", "substrate", "durable"
        )

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                yield self.violation(
                    scope,
                    node,
                    "bare assert vanishes under `python -O`; raise "
                    "InvariantViolation (or a specific ReplicationError) "
                    "instead",
                )
