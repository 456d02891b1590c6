"""R5 — tautological comparisons in ``check_invariants`` bodies.

Inside ``check_invariants`` (or a ``_check_invariant*`` helper), a
comparison may not relate a value to a bound built from itself: the
two sides have identical ASTs (``x <= x``), or one side is an argument
of a ``max()``/``min()`` call on the other (``x <= max(y, x)``).  The
seed shipped ``max_seqno <= max(dbvv[k], max_seqno)``, which can never
fail.  A heuristic, exact on the bug class this codebase has produced.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation

__all__ = ["TautologicalInvariantRule"]


def _dump(node: ast.expr) -> str:
    return ast.dump(node)


def _minmax_args(node: ast.expr) -> list[ast.expr]:
    """Arguments of a direct ``max(...)``/``min(...)`` call, else []."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("max", "min")
    ):
        return list(node.args)
    return []


def _pair_is_tautological(left: ast.expr, right: ast.expr) -> bool:
    left_dump, right_dump = _dump(left), _dump(right)
    if left_dump == right_dump:
        return True
    if any(_dump(arg) == left_dump for arg in _minmax_args(right)):
        return True
    if any(_dump(arg) == right_dump for arg in _minmax_args(left)):
        return True
    return False


class TautologicalInvariantRule(LintRule):
    rule_id = "R5"
    name = "tautological-invariant"
    summary = (
        "check_invariants comparisons must relate two independently "
        "derived quantities, not a value and a bound built from it"
    )

    def applies_to(self, scope: FileScope) -> bool:
        return scope.in_src

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name != "check_invariants" and not node.name.startswith(
                "_check_invariant"
            ):
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Compare):
                    continue
                operands = [inner.left, *inner.comparators]
                for left, right in zip(operands, operands[1:]):
                    if _pair_is_tautological(left, right):
                        yield self.violation(
                            scope,
                            inner,
                            "self-referential invariant comparison: one side "
                            "is derived from the other, so the check can "
                            "never fail (the PR 1 "
                            "`max_seqno <= max(dbvv[k], max_seqno)` "
                            "tautology)",
                        )
                        break
