"""R10 — shared-state mutation sequences that span an await point.

The paper's correctness argument (Theorem 2, DBVV monotonicity)
assumes each node applies a state transition atomically.  An ``async
def`` body is atomic only between awaits, so two mutations of shared
node state with an ``await`` between them publish a half-applied
transition to every other coroutine on the loop.

**Rule.**  Inside ``async def`` methods in ``src/repro/net``, two
mutations of shared node state (``SHARED_STATE_ATTRS``: the driven
:class:`~repro.core.node.EpidemicNode`, link tables, traffic counters)
separated by an await point must sit inside an ``async with`` on a
lock (the per-peer ``_link_locks`` of :class:`~repro.net.node.NetNode`).

:class:`AtomicityScanner` is R10's domain of the shared
:class:`~repro.lint.flow.ForwardWalker`; it walks loop bodies once
(a sequence that spans an await only across the back edge is one
complete transaction per iteration).  A call is a mutation when it
demonstrably touches shared state: a mutator method on a shared
attribute, a bare function given a shared attribute
(``respond(self.node, ...)``), or a method of the same class that the
intra-class fixpoint shows mutates shared state.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

from repro.lint.engine import FileScope, LintRule, Violation
from repro.lint.flow import (
    FUNC_DEFS,
    ForwardWalker,
    fixpoint,
    is_lock_expression,
    walk_in_scope,
)

__all__ = [
    "AtomicityScanner",
    "AtomicitySpan",
    "AwaitAtomicityRule",
    "SHARED_STATE_ATTRS",
]

#: ``self.<attr>`` names that hold shared node state: the driven
#: protocol node, link tables, and traffic counters.
SHARED_STATE_ATTRS = frozenset(
    {
        "node", "_links", "_link_locks", "census", "frames_sent", "bytes_sent",
        "reconnects", "sync_retries", "sessions_served",
    }
)

#: Method names that mutate their receiver.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault", "pop",
        "popitem", "clear", "remove", "discard", "increment", "merge_from",
        "advance", "record", "adopt", "accept_propagation", "send_propagation",
        "intra_node_propagation", "fetch_out_of_bound", "apply_update",
    }
)

#: Bare-name calls that only read their arguments; passing a shared
#: attribute to these is not a mutation.
_READONLY_BARE_CALLS = frozenset(
    {
        "len", "sorted", "list", "tuple", "set", "frozenset", "dict", "enumerate",
        "reversed", "min", "max", "sum", "any", "all", "repr", "str", "bytes",
        "print", "isinstance", "id", "iter", "next", "getattr", "hasattr", "type",
        "format", "zip", "map", "filter",
    }
)

#: Cap on the pending-mutation candidates tracked per path, so deeply
#: branchy functions cannot blow the join up combinatorially.
_MAX_PENDING = 8

Mutations = Callable[[ast.stmt], Sequence[tuple[ast.AST, str]]]


@dataclass(frozen=True)
class Pending:
    """One shared-state mutation whose successor has not arrived yet."""

    node: ast.AST
    label: str
    #: The first await crossed since the mutation, or ``None``.
    await_node: ast.AST | None = None


@dataclass(frozen=True)
class AtomicitySpan:
    """One detected race shape: two unguarded shared-state mutations
    with at least one await point strictly between them."""

    first: ast.AST
    first_label: str
    await_node: ast.AST
    second: ast.AST
    second_label: str


def _location(node: ast.AST) -> tuple[int, int]:
    return getattr(node, "lineno", 0), getattr(node, "col_offset", 0)


class AtomicityScanner(ForwardWalker[tuple[Pending, ...]]):
    """Find unguarded mutation sequences that span an await point.

    The state of a path is its pending mutations.  ``mutations(stmt)``
    maps one *simple* statement to the shared-state mutations it
    performs, in evaluation order, as ``(node, label)`` pairs; compound
    statements are the walker's business and never reach it.
    ``is_guard`` classifies an ``async with`` context expression.
    """

    def __init__(
        self,
        mutations: Mutations,
        is_guard: Callable[[ast.expr], bool] = is_lock_expression,
    ) -> None:
        super().__init__(is_guard)
        self._mutations = mutations
        self._spans: list[AtomicitySpan] = []
        self._reported: set[tuple[int, int]] = set()

    def scan(self, function: ast.AsyncFunctionDef) -> list[AtomicitySpan]:
        """All atomicity spans in one ``async def`` body."""
        self._spans = []
        self._reported = set()
        self.run(function.body, ())
        return self._spans

    def join(
        self, states: Iterable[tuple[Pending, ...] | None]
    ) -> tuple[Pending, ...] | None:
        alive = [state for state in states if state is not None]
        if not alive:
            return None
        merged: dict[tuple[int, int, bool], Pending] = {}
        for state in alive:
            for pending in state:
                key = (*_location(pending.node), pending.await_node is not None)
                merged.setdefault(key, pending)
        return tuple(merged.values())[:_MAX_PENDING]

    def on_await(
        self, node: ast.AST, state: tuple[Pending, ...]
    ) -> tuple[Pending, ...]:
        return tuple(
            replace(pending, await_node=node) if pending.await_node is None else pending
            for pending in state
        )

    def transfer(
        self, stmt: ast.stmt, state: tuple[Pending, ...]
    ) -> tuple[Pending, ...]:
        for node, label in self._mutations(stmt):
            if self.locked:
                # Inside an async-with-lock region: the lock is exactly
                # the sanctioned way to hold an invariant across awaits.
                continue
            for pending in state:
                if pending.await_node is not None:
                    if _location(node) not in self._reported:
                        self._reported.add(_location(node))
                        span = AtomicitySpan(
                            pending.node, pending.label, pending.await_node, node, label
                        )
                        self._spans.append(span)
                    break
            state = (Pending(node, label),)
        return state


def _self_attr_name(expr: ast.expr) -> str | None:
    """``self.<attr>`` (or a subscript of it) -> the attribute name."""
    if isinstance(expr, ast.Subscript):
        return _self_attr_name(expr.value)
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _shared_target(expr: ast.expr) -> str | None:
    name = _self_attr_name(expr)
    return name if name in SHARED_STATE_ATTRS else None


def _flatten_target(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_target(element)
    else:
        yield target


class _MutationModel:
    """Per-class mutation knowledge: which ``self.<method>`` calls are
    known to mutate shared state (one file deep — the linter never
    imports)."""

    def __init__(self, mutating_methods: frozenset[str]) -> None:
        self.mutating_methods = mutating_methods

    def mutations(self, stmt: ast.AST) -> Sequence[tuple[ast.AST, str]]:
        """Shared-state mutations performed by one simple statement (or
        a whole function body), in (approximate) evaluation order."""
        events: list[tuple[ast.AST, str]] = []
        for node in walk_in_scope(stmt):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for element in _flatten_target(target):
                        name = _shared_target(element)
                        if name is not None:
                            events.append((node, f"self.{name}"))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    name = _shared_target(target)
                    if name is not None:
                        events.append((node, f"del self.{name}"))
            elif isinstance(node, ast.Call):
                event = self._call_mutation(node)
                if event is not None:
                    events.append(event)
        return events

    def _call_mutation(self, node: ast.Call) -> tuple[ast.AST, str] | None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = _shared_target(func.value)
            if receiver is not None and func.attr in _MUTATOR_METHODS:
                return (node, f"self.{receiver}.{func.attr}()")
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and func.attr in self.mutating_methods
            ):
                return (node, f"self.{func.attr}()")
        elif isinstance(func, ast.Name):
            if func.id in _READONLY_BARE_CALLS:
                return None
            for arg in node.args:
                name = _shared_target(arg)
                if name is not None:
                    return (node, f"{func.id}(self.{name}, ...)")
        return None


def _class_mutating_methods(klass: ast.ClassDef) -> frozenset[str]:
    """Method names of ``klass`` that (transitively through ``self``
    calls within the class) mutate shared state."""
    methods = [node for node in klass.body if isinstance(node, FUNC_DEFS)]

    def step(known: frozenset[str]) -> frozenset[str]:
        model = _MutationModel(known)
        return frozenset(method.name for method in methods if model.mutations(method))

    # Each round that changes anything adds a method, so this converges.
    return fixpoint(step, frozenset(), max_rounds=len(methods) + 1)


class AwaitAtomicityRule(LintRule):
    rule_id = "R10"
    name = "await-atomicity"
    summary = (
        "shared node-state mutation sequences may not span an await "
        "outside an async-with lock region"
    )

    def applies_to(self, scope: FileScope) -> bool:
        return scope.in_subpackage("net")

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        for klass in ast.walk(tree):
            if not isinstance(klass, ast.ClassDef):
                continue
            model = _MutationModel(_class_mutating_methods(klass))
            scanner = AtomicityScanner(model.mutations)
            for method in klass.body:
                if not isinstance(method, ast.AsyncFunctionDef):
                    continue
                for span in scanner.scan(method):
                    first_line = getattr(span.first, "lineno", 0)
                    await_line = getattr(span.await_node, "lineno", 0)
                    yield self.violation(
                        scope,
                        span.second,
                        f"`{method.name}` mutates {span.second_label} after "
                        f"mutating {span.first_label} (line {first_line}) "
                        f"with an await point between (line {await_line}); "
                        "the half-applied transition is visible to every "
                        "other coroutine — hold the per-peer lock "
                        "(`async with self._link_locks[...]`) across the "
                        "sequence, or finish the mutations before awaiting",
                    )
