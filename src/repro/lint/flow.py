"""AST shapes the rules share, and the one forward statement walker.

Two analyses reason about control flow inside a function body: R10
(which shared-state mutations an await separates) and the taint engine
behind R13–R15 (which untrusted values reach a sink).  Both are forward
walks over the statement AST that differ only in what they track, so
:class:`ForwardWalker` owns the statement shapes once and a *domain*
subclass supplies a state, its :meth:`~ForwardWalker.join`, and a
:meth:`~ForwardWalker.transfer` for one simple statement:

* ``if`` arms and ``match`` cases (and no case) are joined;
* a ``try`` / ``except*`` handler is entered with the join of body
  entry and body exit — the exception may fire anywhere in the body;
  ``finally`` is walked even when every path through the ``try`` ends;
* ``return`` / ``raise`` / ``break`` / ``continue`` end the path: the
  dead state is ``None`` and contributes nothing to a join;
* nested ``def`` / ``lambda`` / ``class`` bodies are skipped;
* a loop body is walked :attr:`~ForwardWalker.loop_rounds` times, or
  until the loop-head state stops growing;
* ``await``, ``async for`` (each iteration) and ``async with`` (enter
  and exit) are :meth:`~ForwardWalker.on_await` events, and the body
  of an ``async with`` on a lock runs with
  :attr:`~ForwardWalker.locked` raised.

Headers reach the transfer as simple statements: ``for t in it`` binds
``t = it``, ``with e as v`` binds ``v = e``, ``except E as n`` binds
``n = None``, a ``case`` binds its captures to the subject, and a test
or subject is an expression statement.  Within a simple statement its
awaits come first, in lexical order, then the transfer.
"""

from __future__ import annotations

import ast
from typing import Callable, Generic, Iterable, Iterator, Sequence, TypeVar

__all__ = [
    "FUNC_DEFS",
    "NEW_SCOPE",
    "TRY_NODES",
    "ForwardWalker",
    "fixpoint",
    "handler_names",
    "is_lock_expression",
    "iter_awaits",
    "leaf_name",
    "walk_in_scope",
]

FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: AST nodes that open a new scope: their bodies run on another frame.
NEW_SCOPE = (*FUNC_DEFS, ast.Lambda, ast.ClassDef)

#: ``try`` statements; ``ast.TryStar`` (``except*``) exists from 3.11.
TRY_NODES = (ast.Try, getattr(ast, "TryStar", ast.Try))

#: Name fragments that mark a context-manager expression as a lock.
_LOCK_NAME_FRAGMENTS = ("lock", "mutex", "semaphore")

#: Round cap of :func:`fixpoint`: summaries grow monotonically over
#: small finite sets, so convergence is fast — the cap guards pathology.
_MAX_ROUNDS = 8

T = TypeVar("T")
S = TypeVar("S")


def leaf_name(expr: ast.AST) -> str | None:
    """``name`` for ``name`` and ``x.y.name``; else ``None`` — how a
    call, a lock or a caught exception is named."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def handler_names(handler: ast.ExceptHandler) -> list[str] | None:
    """Exception names an ``except`` clause catches; ``None`` for a
    bare ``except:``."""
    if handler.type is None:
        return None
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [name for name in map(leaf_name, types) if name is not None]


def walk_in_scope(node: ast.AST) -> Iterator[ast.AST]:
    """``node`` and everything lexically inside it, without descending
    into nested function/class scopes."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if current is not node and isinstance(current, NEW_SCOPE):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def iter_awaits(node: ast.AST) -> Iterator[ast.Await]:
    """Every ``await`` lexically inside ``node``, nested scopes skipped."""
    for current in walk_in_scope(node):
        if isinstance(current, ast.Await):
            yield current


def is_lock_expression(expr: ast.expr) -> bool:
    """True when ``expr`` (an ``async with`` context) denotes a lock.

    The test is lexical: any identifier or attribute in the expression
    whose name contains ``lock``/``mutex``/``semaphore`` (case-
    insensitive) marks the context as a guard — which covers ``lock``,
    ``self._lock``, ``self._link_locks.setdefault(...)``, and every
    conventional spelling without needing type inference.
    """
    for node in ast.walk(expr):
        name = leaf_name(node)
        if name is not None and any(
            fragment in name.lower() for fragment in _LOCK_NAME_FRAGMENTS
        ):
            return True
    return False


def fixpoint(step: Callable[[T], T], start: T, max_rounds: int = _MAX_ROUNDS) -> T:
    """Apply ``step`` from ``start`` until the result stops changing
    (or ``max_rounds`` rounds ran) — the per-module summary closure."""
    state = start
    for _ in range(max_rounds):
        grown = step(state)
        if grown == state:
            break
        state = grown
    return state


def _bind(target: ast.expr | None, value: ast.expr) -> ast.stmt:
    """The simple statement ``target = value`` (or just ``value``)."""
    if target is None:
        return ast.copy_location(ast.Expr(value=value), value)
    return ast.copy_location(ast.Assign(targets=[target], value=value), target)


class ForwardWalker(Generic[S]):
    """Forward walk over statement lists; ``None`` is the dead state.

    A domain overrides :meth:`join` and :meth:`transfer`, and where it
    needs them :meth:`copy` (for a state it changes in place),
    :meth:`on_await`, :meth:`after_if` and :attr:`loop_rounds`.
    """

    #: Walks of a loop body: one accepts a sequence that spans an await
    #: only across the back edge; more iterate the loop head to a
    #: fixpoint.
    loop_rounds = 1

    def __init__(
        self, is_guard: Callable[[ast.expr], bool] = is_lock_expression
    ) -> None:
        #: Classifies an ``async with`` context expression as a lock.
        self.is_guard = is_guard
        #: Depth of the enclosing ``async with <lock>`` regions.
        self.locked = 0

    # -- the domain -----------------------------------------------------

    def join(self, states: Iterable[S | None]) -> S | None:
        raise NotImplementedError

    def transfer(self, stmt: ast.stmt, state: S) -> S:
        raise NotImplementedError

    def copy(self, state: S) -> S:
        return state

    def on_await(self, node: ast.AST, state: S) -> S:
        return state

    def after_if(self, stmt: ast.If, body: S | None, joined: S | None) -> S | None:
        """Refine the join of an ``if`` whose body exit was ``body``."""
        return joined

    # -- the walk -------------------------------------------------------

    def run(self, body: Sequence[ast.stmt], state: S | None) -> S | None:
        for stmt in body:
            if state is None:
                break
            state = self.stmt(stmt, state)
        return state

    def branch(self, body: Sequence[ast.stmt], state: S | None) -> S | None:
        """Walk ``body`` from a copy of ``state``."""
        return None if state is None else self.run(body, self.copy(state))

    def simple(self, stmt: ast.stmt, state: S) -> S:
        for node in iter_awaits(stmt):
            state = self.on_await(node, state)
        return self.transfer(stmt, state)

    def stmt(self, stmt: ast.stmt, state: S) -> S | None:
        if isinstance(stmt, ast.If):
            state = self.simple(_bind(None, stmt.test), state)
            body = self.branch(stmt.body, state)
            joined = self.join([body, self.branch(stmt.orelse, state)])
            return self.after_if(stmt, body, joined)
        if isinstance(stmt, ast.Match):
            state = self.simple(_bind(None, stmt.subject), state)
            cases: list[S | None] = [state]  # no case may match
            for case in stmt.cases:
                captures: list[ast.expr] = [
                    ast.Name(node.name, ast.Store())
                    for node in ast.walk(case.pattern)
                    if isinstance(node, ast.MatchAs) and node.name
                ]
                stmts = case.body
                if captures:
                    target = ast.Tuple(captures, ast.Store())
                    ast.copy_location(target, case.pattern)
                    stmts = [_bind(target, stmt.subject), *stmts]
                cases.append(self.branch(stmts, state))
            return self.join(cases)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            state = self.simple(_bind(stmt.target, stmt.iter), state)
            if isinstance(stmt, ast.AsyncFor):
                state = self.on_await(stmt, state)
            return self._loop(stmt, state)
        if isinstance(stmt, ast.While):
            return self._loop(stmt, self.simple(_bind(None, stmt.test), state))
        if isinstance(stmt, TRY_NODES):
            body = self.branch(stmt.body, state)
            handler_entry = self.join([state, body])
            exits = [self.branch(stmt.orelse, body)]
            for handler in stmt.handlers:
                stmts = handler.body
                if handler.name:
                    name = ast.Name(handler.name, ast.Store())
                    ast.copy_location(name, handler)
                    stmts = [_bind(name, ast.Constant(None)), *stmts]
                exits.append(self.branch(stmts, handler_entry))
            out = self.join(exits)
            if out is None:
                self.branch(stmt.finalbody, state)
                return None
            return self.run(stmt.finalbody, out)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                header = _bind(item.optional_vars, item.context_expr)
                state = self.simple(header, state)
            if isinstance(stmt, ast.With):
                return self.run(stmt.body, state)
            locked = any(self.is_guard(item.context_expr) for item in stmt.items)
            state = self.on_await(stmt, state)  # __aenter__
            self.locked += locked
            out = self.run(stmt.body, state)
            self.locked -= locked
            return None if out is None else self.on_await(stmt, out)  # __aexit__
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.simple(stmt, state)
            return None
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return None
        if isinstance(stmt, NEW_SCOPE):
            return state
        return self.simple(stmt, state)

    def _loop(self, stmt: ast.For | ast.AsyncFor | ast.While, entry: S) -> S | None:
        head: S | None = entry
        for _ in range(self.loop_rounds):
            grown = self.join([head, self.branch(stmt.body, head)])
            if grown == head:
                break
            head = grown
        return self.join([head, self.branch(stmt.orelse, head)])
