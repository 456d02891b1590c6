"""R11 — fire-and-forget tasks: untracked ``create_task``/``ensure_future``.

A task created and dropped is held only weakly by the loop (it can be
collected mid-flight) and its exception is never retrieved.  In
``src/repro/net`` every task is spawned through
:func:`repro.net.tasks.spawn` (or a :class:`~repro.net.tasks.
TaskTracker`), which retains it, logs its exception, and lets shutdown
await it.  Raw ``create_task`` / ``ensure_future`` calls are flagged
everywhere except ``repro/net/tasks.py``, which wraps them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation
from repro.lint.flow import leaf_name

__all__ = ["TrackedTasksRule"]

#: Spawning entry points, by attribute or bare (from-import) name.
_SPAWN_NAMES = frozenset({"create_task", "ensure_future"})


class TrackedTasksRule(LintRule):
    rule_id = "R11"
    name = "tracked-tasks"
    summary = (
        "tasks are spawned via repro.net.tasks.spawn (retained, "
        "exception-logged), never raw create_task/ensure_future"
    )

    def applies_to(self, scope: FileScope) -> bool:
        if not scope.in_subpackage("net"):
            return False
        # The tracked primitive itself wraps the raw call.
        return scope.package != ("repro", "net", "tasks.py")

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = leaf_name(node.func)
            if name not in _SPAWN_NAMES:
                continue
            yield self.violation(
                scope,
                node,
                f"raw `{name}` drops the task: its exception is never "
                "retrieved and the loop holds only a weak reference; "
                "spawn through repro.net.tasks.spawn() so the task is "
                "retained, exception-logged, and awaited on shutdown",
            )
