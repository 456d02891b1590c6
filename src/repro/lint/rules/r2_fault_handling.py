"""R2 — catching ``NodeDownError`` without ``MessageLostError``.

An ``except`` clause that names ``NodeDownError`` must also handle
``MessageLostError`` (in the same tuple, or in a sibling clause of the
same ``try``): both are transport faults, and a session that survives
a dead peer must survive a dropped message.  Catching a common base
class is fine.  The PR 1 escape: a lossy network's drop escaped
``fetch_out_of_bound`` and aborted the user operation behind it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation
from repro.lint.flow import TRY_NODES, handler_names

__all__ = ["LostMessageHandlingRule"]


class LostMessageHandlingRule(LintRule):
    rule_id = "R2"
    name = "lost-message-handling"
    summary = (
        "except clauses naming NodeDownError must also handle "
        "MessageLostError — both are transport faults"
    )

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, TRY_NODES):
                continue
            caught = [handler_names(handler) or [] for handler in node.handlers]
            if any("MessageLostError" in names for names in caught):
                continue
            for handler, names in zip(node.handlers, caught):
                if "NodeDownError" in names:
                    yield self.violation(
                        scope,
                        handler,
                        "catches NodeDownError but not MessageLostError; a "
                        "lossy network makes this handler leak session-"
                        "aborting exceptions (the PR 1 escape)",
                    )
