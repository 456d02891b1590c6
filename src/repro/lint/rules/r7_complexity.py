"""R7 — full item/node-space scans in session-path protocol functions.

The paper's headline claim is that a session costs O(m) in the records
shipped, not O(N) in the database size, and code shape carries that
bound.  Inside the session-path functions of ``repro.core`` and
``repro.baselines`` (``SESSION_PATH_NAMES``), a ``for`` loop or
comprehension may not iterate the full item space (the store, the
per-item value/IVV/stamp maps, the update log) or the full node space
(``range(... n_nodes)``, the time table).  Iterating received message
content or a locally selected subset is always fine.

A scan inherent to a protocol is annotated in place with ``# pragma:
full-scan <reason>``; the reason is mandatory, and the pragma audit
flags pragmas whose line no longer scans anything.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation

__all__ = ["ComplexityBudgetRule", "SESSION_PATH_NAMES"]

#: Functions that run inside an anti-entropy session (either endpoint).
SESSION_PATH_NAMES = frozenset(
    {
        "sync_with",
        "exchange",
        "send_propagation",
        "accept_propagation",
        "make_propagation_request",
        "handle_oob_request",
        "accept_oob",
        "fetch_out_of_bound",
        "intra_node_propagation",
        "_build_gossip",
        "_garbage_collect",
    }
)

#: Session-side helpers by prefix (``_serve_ivv_list``, ``_serve_fetch``,
#: ``_exchange_oob``).
_SESSION_PATH_PREFIXES = ("_serve", "_exchange")

#: Attributes holding the full per-item state of a replica.
_ITEM_SPACE_ATTRS = frozenset({"store", "_values", "_ivvs", "_stamps", "_log"})

#: Attributes holding per-node-squared state (the Wuu time table).
_NODE_SPACE_ATTRS = frozenset({"_table"})

#: Call wrappers that iterate their first argument unchanged.
_TRANSPARENT_WRAPPERS = frozenset(
    {"enumerate", "sorted", "list", "tuple", "reversed"}
)

#: Mapping-view methods that iterate the whole receiver.
_VIEW_METHODS = frozenset({"items", "keys", "values", "names"})


def _mentions_n_nodes(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "n_nodes":
            return True
        if isinstance(sub, ast.Name) and sub.id == "n_nodes":
            return True
    return False


def _scan_space(iterable: ast.expr) -> str | None:
    """Classify an iterable expression: ``"item"``, ``"node"``, or
    ``None`` when it does not span a full state space."""
    if isinstance(iterable, ast.Attribute):
        if iterable.attr in _ITEM_SPACE_ATTRS:
            return "item"
        if iterable.attr in _NODE_SPACE_ATTRS:
            return "node"
        return None
    if isinstance(iterable, ast.Call):
        func = iterable.func
        if isinstance(func, ast.Name):
            if func.id == "range" and any(
                _mentions_n_nodes(arg) for arg in iterable.args
            ):
                return "node"
            if func.id in _TRANSPARENT_WRAPPERS and iterable.args:
                return _scan_space(iterable.args[0])
            return None
        if isinstance(func, ast.Attribute) and func.attr in _VIEW_METHODS:
            return _scan_space(func.value)
    return None


def _is_session_path(name: str) -> bool:
    return name in SESSION_PATH_NAMES or name.startswith(_SESSION_PATH_PREFIXES)


class ComplexityBudgetRule(LintRule):
    rule_id = "R7"
    name = "complexity-budget"
    summary = (
        "session-path code stays O(m): no full item/node-space scans "
        "without a `# pragma: full-scan <reason>`"
    )

    def applies_to(self, scope: FileScope) -> bool:
        return scope.in_subpackage("core", "baselines")

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        reported: set[tuple[int, int]] = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_session_path(node.name):
                continue
            yield from self._check_function(node, scope, reported)

    def _check_function(
        self,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        scope: FileScope,
        reported: set[tuple[int, int]],
    ) -> Iterator[Violation]:
        for node in ast.walk(function):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables = [node.iter]
            elif isinstance(
                node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
            ):
                iterables = [generator.iter for generator in node.generators]
            else:
                continue
            for iterable in iterables:
                space = _scan_space(iterable)
                if space is None:
                    continue
                key = (iterable.lineno, iterable.col_offset)
                if key in reported:
                    continue
                reported.add(key)
                yield self.violation(
                    scope,
                    iterable,
                    f"`{function.name}` iterates the full {space} space; "
                    "session cost must stay O(m) (records shipped) — "
                    "restructure, or annotate an inherent scan with "
                    "`# pragma: full-scan <reason>`",
                )
