"""R6 — protocol messages must be frozen, slotted dataclasses.

Inside ``src/repro``, every class defining ``wire_size`` — the marker
of an on-the-wire message — must be ``@dataclass(frozen=True,
slots=True)``; ``typing.Protocol`` shapes are exempt.  The in-process
transport delivers messages by identity and retries replay sessions,
so a mutable message would alias one endpoint's state into another's.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation
from repro.lint.flow import leaf_name, message_classes

__all__ = ["FrozenMessageRule"]


def _frozen_and_slotted(node: ast.ClassDef) -> bool:
    """Is the class decorated ``@dataclass(frozen=True, slots=True)``?"""
    for decorator in node.decorator_list:
        if leaf_name(decorator) == "dataclass":
            return False
        if isinstance(decorator, ast.Call) and leaf_name(decorator.func) == "dataclass":
            flags = {
                keyword.arg: bool(keyword.value.value)
                for keyword in decorator.keywords
                if isinstance(keyword.value, ast.Constant)
            }
            return flags.get("frozen", False) and flags.get("slots", False)
    return False


class FrozenMessageRule(LintRule):
    rule_id = "R6"
    name = "frozen-message"
    summary = (
        "classes defining wire_size are protocol messages and must be "
        "@dataclass(frozen=True, slots=True)"
    )

    def applies_to(self, scope: FileScope) -> bool:
        return scope.in_src

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        for node in message_classes(tree):
            if not _frozen_and_slotted(node):
                yield self.violation(
                    scope,
                    node,
                    f"message class {node.name} must be "
                    "@dataclass(frozen=True, slots=True): the in-process "
                    "transport delivers by identity, and retries replay "
                    "sessions — a mutable message aliases state across "
                    "endpoints",
                )
