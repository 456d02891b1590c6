"""R12 — cancellation-unsafe and type-erasing exception handlers.

In ``src/repro/net``:

* an ``except`` clause catching ``CancelledError``, ``BaseException``
  or everything (bare ``except:``) must re-raise — otherwise a
  cancelled task keeps running, holding connections and locks;
* an ``except Exception`` handler must convert — its body raises —
  rather than erase the typed :mod:`repro.errors` taxonomy the retry
  machinery dispatches on.

Handlers for specific typed exceptions are the sanctioned shape.
``repro.net.tasks.cancel_and_wait`` re-raises a cancellation that was
not its own, so it satisfies the rule rather than suppressing it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation
from repro.lint.flow import handler_names

__all__ = ["CancellationSafetyRule"]

#: Exception names whose handlers must re-raise unconditionally.
_MUST_RERAISE = frozenset({"CancelledError", "BaseException"})


def _body_raises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


class CancellationSafetyRule(LintRule):
    rule_id = "R12"
    name = "cancellation-safety"
    summary = (
        "except clauses must not swallow CancelledError, and broad "
        "except Exception must convert to typed repro.errors"
    )

    def applies_to(self, scope: FileScope) -> bool:
        return scope.in_subpackage("net")

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _body_raises(node):
                continue
            names = handler_names(node)
            if names is None:
                yield self.violation(
                    scope,
                    node,
                    "bare `except:` swallows asyncio.CancelledError — a "
                    "cancelled coroutine keeps running; catch the typed "
                    "errors, or re-raise",
                )
                continue
            broad = [name for name in names if name in _MUST_RERAISE]
            if broad:
                yield self.violation(
                    scope,
                    node,
                    f"`except {broad[0]}` without a re-raise swallows "
                    "cancellation — the task keeps running after being "
                    "cancelled; re-raise, or use "
                    "repro.net.tasks.cancel_and_wait for a task you "
                    "cancelled yourself",
                )
            elif "Exception" in names:
                yield self.violation(
                    scope,
                    node,
                    "broad `except Exception` on the session path erases "
                    "the typed error taxonomy; catch the specific "
                    "repro.errors types, or convert by raising one",
                )
