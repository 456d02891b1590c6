"""Trust-boundary taint dataflow for the R13–R15 lint rules.

The protocol core adopts whatever a decoded frame says — the paper's
honest-peer assumption.  This per-module analysis proves that no
wire-decoded value reaches protocol state without passing a registered
validator.  It is the taint domain of the shared forward walker
(:class:`~repro.lint.flow.ForwardWalker`) over a three-level lattice,
CLEAN < CAPPED < TAINTED:

**Sources.**  A call to a decode boundary (:data:`FRAME_SOURCES`)
is TAINTED, as is a parameter named ``request`` or ``answer`` (the
session driver's names for peer-supplied messages).  Inside
``repro.wire`` the ``Decoder`` field readers are sources too;
``Decoder.count()`` is CAPPED: untrusted, but size-bounded.

**Propagation.**  Through assignments, calls (a tainted argument
taints the result), containers, attribute loads, and ``self``
attribute stores; function and attribute summaries are folded to a
per-module fixpoint, so a local function returning taint taints its
call sites.

**Sanitizers.**  Only the *result* of a registered sanitizer
(:data:`SANCTIONED_SANITIZERS`: the ``validate_*`` API of
:mod:`repro.core.validate` plus ``validate_record`` and
``validate_snapshot``) is CLEAN: ``answer = validate_...(answer)``
cleans ``answer``; a bare ``validate_...(answer)`` call cleans nothing.
Surviving a cap guard (``if n > MAX_...: raise``) downgrades TAINTED
to CAPPED — enough for R14, never for R13.

**Findings.**  ``sink``: a TAINTED or CAPPED argument reaches a
protocol-state mutation (:data:`STATE_SINKS`) → R13.  ``alloc``: a
TAINTED integer sizes ``range``/``readexactly``/``bytearray`` or a
multiplication → R14.  ``swallow`` / ``clamp``: a validation failure
silently discarded, or an untrusted value clamped with ``min``/``max``
→ R15.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.lint.engine import FileScope
from repro.lint.flow import FUNC_DEFS, ForwardWalker, fixpoint, handler_names, leaf_name

__all__ = [
    "CAPPED",
    "CLEAN",
    "FRAME_SOURCES",
    "SANCTIONED_SANITIZERS",
    "STATE_SINKS",
    "TAINTED",
    "TaintFinding",
    "TaintReport",
    "analyze_module",
]

# Taint lattice: CLEAN < CAPPED < TAINTED.  Join is max().
CLEAN = 0
CAPPED = 1
TAINTED = 2

#: Calls that produce untrusted data in any module: frame/blob readers,
#: codec decodes, the JSON client-op parser, WAL record and checkpoint
#: decoding.
FRAME_SOURCES = frozenset(
    {
        "decode", "loads", "read_frame", "read_blob", "receive_preamble",
        "read_stream_uvarint", "decode_record", "decode_checkpoint",
    }
)

#: ``Decoder`` field readers — sources only inside ``repro.wire``,
#: where every call sits downstream of attacker-controlled bytes.
DECODER_READS = frozenset(
    {"uvarint", "svarint", "bytes_", "string", "message", "vv", "read_uvarint"}
)

#: Cap-checked readers: untrusted but size-bounded (CAPPED).
CAPPED_READS = frozenset({"count"})

#: Parameters holding peer-supplied messages by convention (the session
#: driver's ``respond(node, request)`` / ``conclude(answer)`` and the
#: net layer's client-op handler).
UNTRUSTED_PARAMS = frozenset({"request", "answer"})

#: The registered sanitizer set.  ``repro.core.validate.__all__`` must
#: stay in sync (a unit test cross-checks) — plus the two disk-state
#: validators, ``validate_record`` (WAL records) and
#: ``validate_snapshot`` (checkpoints); an unregistered
#: ``validate_``-prefixed helper clears nothing.
SANCTIONED_SANITIZERS = frozenset(
    {
        "validate_item_name", "validate_node_id", "validate_oob_reply",
        "validate_propagation_reply", "validate_propagation_request",
        "validate_record", "validate_session_answer", "validate_snapshot",
        "validate_value", "validate_version_vector",
    }
)

#: Protocol-state mutation sites: the R4 vector/log mutator inventory,
#: the ``EpidemicNode`` entry points, the session driver, the durable
#: journal's record methods, and the WAL replay executor.  An untrusted
#: argument reaching any of these is an R13 violation.
STATE_SINKS = frozenset(
    {
        # EpidemicNode entry points (protocol state transitions)
        "update", "accept_propagation", "accept_oob", "resolve_conflict",
        "send_propagation", "intra_node_propagation",
        # not a mutation, but an untrusted name must not index the store
        # (or come back in the error) unvalidated — the client ``get``
        "read",
        # session driver
        "conclude", "sync_with", "respond",
        # durable journal / replay
        "record", "record_update", "record_accept", "record_oob",
        "record_resolve", "apply_record",
        # checkpoint restore: the one writer of core state outside core
        "rebuild_node",
        # version-vector / log mutators (R4's inventory)
        "increment", "merge_from", "record_local_update_by", "absorb_item_copy",
        "absorb_item_copies", "discard_item",
    }
)

#: Calls whose integer argument sizes an allocation or iteration.
ALLOC_SINKS = frozenset({"range", "readexactly", "bytearray"})

#: Exceptions that signal a validation failure; silently discarding one
#: on the untrusted path is an R15 violation.
VALIDATION_EXCEPTIONS = frozenset(
    {
        "ValidationError", "WireFormatError", "WALError", "ValueError",
        "KeyError", "UnicodeDecodeError", "OverflowError",
    }
)

#: Names that look like a bound in a comparison guard.
_CAP_NAME_RE = re.compile(r"(?i)(max|min|cap|limit|budget|bound|n_nodes)")


@dataclass(frozen=True)
class TaintFinding:
    """One dataflow finding, before rule filtering."""

    kind: str  # "sink" | "alloc" | "swallow" | "clamp"
    line: int
    col: int
    detail: str


@dataclass(frozen=True)
class TaintReport:
    """Everything the analysis learned about one module."""

    findings: tuple[TaintFinding, ...]

    def of_kind(self, *kinds: str) -> Iterator[TaintFinding]:
        for finding in self.findings:
            if finding.kind in kinds:
                yield finding


def _is_cappish(expr: ast.expr) -> bool:
    """Does this comparator look like a bound (constant, cap-named
    constant/attribute, or a ``len()``-derived quantity)?"""
    for node in ast.walk(expr):
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return True
        if isinstance(node, ast.Name) and _CAP_NAME_RE.search(node.id):
            return True
        if isinstance(node, ast.Attribute) and _CAP_NAME_RE.search(node.attr):
            return True
        if isinstance(node, ast.Call) and leaf_name(node.func) == "len":
            return True
    return False


class _ModuleContext:
    """Shared per-module state: function summaries and attribute taints,
    grown monotonically across fixpoint rounds."""

    def __init__(self, tree: ast.Module, wire_scope: bool) -> None:
        self.wire_scope = wire_scope
        # Local functions/methods by bare name (methods are called as
        # ``self.f(...)`` — the bare-attr key is how call sites see them).
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for stmt in tree.body:
            if isinstance(stmt, FUNC_DEFS):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, FUNC_DEFS):
                        self.functions[sub.name] = sub
        #: Local functions whose return value carries taint.
        self.tainting: set[str] = set()
        #: ``self.<attr>`` slots ever assigned a tainted value.
        self.attr_taints: dict[str, int] = {}


class _FunctionFlow(ForwardWalker[dict[str, int]]):
    """The taint domain of :class:`~repro.lint.flow.ForwardWalker`: a
    variable→taint environment over one function body (or the module
    body), with loop bodies iterated to a two-round local fixpoint."""

    loop_rounds = 2

    def __init__(
        self,
        ctx: _ModuleContext,
        findings: list[TaintFinding] | None,
    ) -> None:
        super().__init__()
        self.ctx = ctx
        self.findings = findings
        self.return_taint = CLEAN

    # -- entry points ----------------------------------------------------

    def run_function(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
        args = func.args
        env = {
            arg.arg: TAINTED
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if arg.arg in UNTRUSTED_PARAMS
        }
        self.run(func.body, env)
        return self.return_taint

    # -- findings --------------------------------------------------------

    def _record(self, node: ast.AST, kind: str, detail: str) -> None:
        if self.findings is not None:
            self.findings.append(
                TaintFinding(
                    kind,
                    getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0),
                    detail,
                )
            )

    # -- expression taint ------------------------------------------------

    def _taint(self, node: ast.expr | None, env: dict[str, int]) -> int:
        if node is None:
            return CLEAN
        if isinstance(node, ast.Name):
            return env.get(node.id, CLEAN)
        if isinstance(node, ast.Attribute):
            base = self._taint(node.value, env)
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                base = max(base, self.ctx.attr_taints.get(node.attr, CLEAN))
            return base
        if isinstance(node, ast.Subscript):
            return self._taint(node.value, env)
        if isinstance(node, ast.Call):
            return self._call_taint(node, env)
        if isinstance(node, ast.IfExp):
            self._taint(node.test, env)
            return max(self._taint(node.body, env), self._taint(node.orelse, env))
        if isinstance(node, ast.NamedExpr):
            taint = self._taint(node.value, env)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = taint
            return taint
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            inner = dict(env)
            for gen in node.generators:
                self._bind_target(gen.target, self._taint(gen.iter, inner), inner)
                for cond in gen.ifs:
                    self._taint(cond, inner)
            if isinstance(node, ast.DictComp):
                return max(
                    self._taint(node.key, inner), self._taint(node.value, inner)
                )
            return self._taint(node.elt, inner)
        if isinstance(node, ast.Lambda):
            return CLEAN
        # Everything else joins its operands: containers, operators,
        # f-strings, awaits, yields.
        worst = max(
            (
                self._taint(child, env)
                for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.expr)
            ),
            default=CLEAN,
        )
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if worst >= TAINTED:
                self._record(
                    node,
                    "alloc",
                    "tainted integer sizes a multiplication (allocation) "
                    "without a cap check",
                )
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            self.return_taint = max(self.return_taint, worst)
            return CLEAN
        elif isinstance(node, (ast.Compare, ast.Slice)):
            return CLEAN  # a comparison's result is a clean boolean
        return worst

    def _call_taint(self, node: ast.Call, env: dict[str, int]) -> int:
        name = leaf_name(node.func)
        arg_taints = [self._taint(a, env) for a in node.args]
        arg_taints.extend(self._taint(kw.value, env) for kw in node.keywords)
        worst_arg = max(arg_taints, default=CLEAN)

        if name in STATE_SINKS and worst_arg >= CAPPED:
            self._record(
                node,
                "sink",
                f"untrusted value reaches protocol-state mutation "
                f"`{name}(...)` without a registered validator "
                f"(see repro.core.validate)",
            )
        if name in ALLOC_SINKS and worst_arg >= TAINTED:
            self._record(
                node,
                "alloc",
                f"tainted integer drives `{name}(...)` without a cap check",
            )
        if name in {"min", "max"} and len(node.args) >= 2:
            if worst_arg >= TAINTED and any(
                _is_cappish(a) for a in node.args
            ):
                self._record(
                    node,
                    "clamp",
                    f"untrusted value silently clamped with `{name}(...)`; "
                    "raise ValidationError instead",
                )

        if name in SANCTIONED_SANITIZERS:
            return CLEAN
        if name in CAPPED_READS:
            return CAPPED
        if name in FRAME_SOURCES:
            return TAINTED
        if self.ctx.wire_scope and name in DECODER_READS:
            return TAINTED
        if name is not None and name in self.ctx.tainting:
            return TAINTED
        receiver = CLEAN
        if isinstance(node.func, ast.Attribute):
            receiver = self._taint(node.func.value, env)
        return max(worst_arg, receiver)

    # -- binding ---------------------------------------------------------

    def _bind_target(
        self, target: ast.expr, taint: int, env: dict[str, int]
    ) -> None:
        if isinstance(target, ast.Name):
            if taint == CLEAN:
                env.pop(target.id, None)
            else:
                env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, taint, env)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taint, env)
        elif isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                if taint > self.ctx.attr_taints.get(target.attr, CLEAN):
                    self.ctx.attr_taints[target.attr] = taint
        elif isinstance(target, ast.Subscript):
            # Storing a tainted element poisons the container.
            base = target.value
            if taint > CLEAN and isinstance(base, ast.Name):
                env[base.id] = max(env.get(base.id, CLEAN), taint)
            elif (
                taint > CLEAN
                and isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                if taint > self.ctx.attr_taints.get(base.attr, CLEAN):
                    self.ctx.attr_taints[base.attr] = taint

    # -- the domain ------------------------------------------------------

    def copy(self, state: dict[str, int]) -> dict[str, int]:
        return dict(state)

    def join(
        self, states: Iterable[dict[str, int] | None]
    ) -> dict[str, int] | None:
        alive = [state for state in states if state is not None]
        if len(alive) <= 1:
            return alive[0] if alive else None
        joined = dict(alive[0])
        for state in alive[1:]:
            for name, taint in state.items():
                if taint > joined.get(name, CLEAN):
                    joined[name] = taint
        return joined

    def transfer(self, stmt: ast.stmt, env: dict[str, int]) -> dict[str, int]:
        if isinstance(stmt, ast.Assign):
            taint = self._taint(stmt.value, env)
            for target in stmt.targets:
                self._bind_target(target, taint, env)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if stmt.value is not None:
                taint = self._taint(stmt.value, env)
                target = stmt.target
                if isinstance(stmt, ast.AugAssign) and isinstance(target, ast.Name):
                    taint = max(taint, env.get(target.id, CLEAN))
                self._bind_target(stmt.target, taint, env)
        elif isinstance(stmt, ast.Return):
            self.return_taint = max(self.return_taint, self._taint(stmt.value, env))
        elif isinstance(stmt, ast.Expr):
            self._taint(stmt.value, env)
        elif isinstance(stmt, ast.Raise):
            self._taint(stmt.exc, env)
        elif isinstance(stmt, ast.Assert):
            self._taint(stmt.test, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        return env  # imports, global/nonlocal, pass, ...

    def after_if(
        self,
        stmt: ast.If,
        body: dict[str, int] | None,
        joined: dict[str, int] | None,
    ) -> dict[str, int] | None:
        # ``if <var> past cap: raise`` — surviving means bounded.
        if body is None and joined is not None:
            guard = self._cap_guard_name(stmt.test, joined)
            if guard is not None:
                joined[guard] = CAPPED
        return joined

    def _cap_guard_name(
        self, test: ast.expr, env: dict[str, int]
    ) -> str | None:
        """The single tainted variable this test bounds against a cap,
        if any.  ``or``-chains qualify clause by clause (surviving an
        ``if a or b: raise`` refutes every clause); ``and``-chains do
        not."""
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._cap_guard_name(test.operand, env)
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            for value in test.values:
                name = self._cap_guard_name(value, env)
                if name is not None:
                    return name
            return None
        if not isinstance(test, ast.Compare):
            return None
        operands = [test.left, *test.comparators]
        tainted_names = {
            op.id
            for op in operands
            if isinstance(op, ast.Name) and env.get(op.id, CLEAN) >= TAINTED
        }
        if len(tainted_names) != 1:
            return None
        name = next(iter(tainted_names))
        others = [
            op for op in operands if not (isinstance(op, ast.Name) and op.id == name)
        ]
        if any(_is_cappish(op) for op in others):
            return name
        return None


def _scan_swallows(tree: ast.Module, findings: list[TaintFinding]) -> None:
    """Syntactic R15 half: ``except <validation error>: pass``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        # A bare ``except:`` is R12's business.
        hit = sorted(set(handler_names(node) or ()) & VALIDATION_EXCEPTIONS)
        silent = all(
            isinstance(s, (ast.Pass, ast.Continue))
            or (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
            for s in node.body
        )
        if hit and silent:
            findings.append(
                TaintFinding(
                    "swallow",
                    node.lineno,
                    node.col_offset,
                    f"validation failure ({', '.join(hit)}) silently "
                    "swallowed on the untrusted path; log it or re-raise a "
                    "typed error",
                )
            )


def _analyze(tree: ast.Module, scope: FileScope) -> TaintReport:
    ctx = _ModuleContext(tree, wire_scope=scope.in_subpackage("wire"))

    # Function summaries and self-attribute taints both grow
    # monotonically, so rerun until neither changes.
    def summarize(_: object) -> tuple[frozenset[str], dict[str, int]]:
        for name, func in ctx.functions.items():
            if _FunctionFlow(ctx, findings=None).run_function(func) >= CAPPED:
                ctx.tainting.add(name)
        return frozenset(ctx.tainting), dict(ctx.attr_taints)

    fixpoint(summarize, (frozenset(), {}))

    findings: list[TaintFinding] = []
    for func in ctx.functions.values():
        _FunctionFlow(ctx, findings).run_function(func)
    _FunctionFlow(ctx, findings).run(tree.body, {})
    _scan_swallows(tree, findings)

    unique = sorted(
        set(findings), key=lambda f: (f.line, f.col, f.kind, f.detail)
    )
    return TaintReport(findings=tuple(unique))


# One-slot cache: R13, R14 and R15 run back-to-back on the same parsed
# tree, so the dataflow runs once per file, not once per rule.
_LAST: tuple[ast.Module, str, TaintReport] | None = None


def analyze_module(tree: ast.Module, scope: FileScope) -> TaintReport:
    """Run (or reuse) the taint analysis for one parsed module."""
    global _LAST
    if _LAST is not None and _LAST[0] is tree and _LAST[1] == scope.posix:
        return _LAST[2]
    report = _analyze(tree, scope)
    _LAST = (tree, scope.posix, report)
    return report
