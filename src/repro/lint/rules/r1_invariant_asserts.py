"""R1 — bare ``assert`` in protocol code.

``repro.core``, ``repro.cluster``, ``repro.baselines``,
``repro.substrate`` and ``repro.durable`` may not contain ``assert``
statements: ``python -O`` strips every one, so an invariant written as
an assert silently stops guarding the replica when run optimized.
Invariant checks raise :class:`~repro.errors.InvariantViolation`;
malformed checkpoint input raises
:class:`~repro.durable.checkpoint.SnapshotError`; argument validation
raises the specific :class:`~repro.errors.ReplicationError` subclass.
Tests keep using ``assert`` — pytest rewrites them.
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
