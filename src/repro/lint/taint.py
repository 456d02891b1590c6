"""Trust-boundary taint dataflow for the R13–R15 lint rules.

The protocol core adopts whatever a decoded frame says — that is the
paper's honest-peer assumption, and it is exactly what the Byzantine
arc (ROADMAP item 4) has to drop.  This module gives the lint stack the
static half of that story: a per-module taint analysis that proves no
wire-decoded value reaches protocol state without passing a registered
validator.

The model (deliberately simple, calibrated to this codebase):

**Sources.**  A call to a decode-boundary function
(:data:`FRAME_SOURCES`: ``decode``, ``json.loads``, ``read_frame``,
``decode_record``, ``decode_checkpoint``, ...) produces a TAINTED
value, as does reading a parameter named ``request`` or ``answer`` (the
two names the sans-I/O session driver uses for peer-supplied messages).  Inside
``repro.wire``, the ``Decoder`` field readers (``uvarint``, ``bytes_``,
``vv``, ...) are sources too — every field of a frame is attacker
data.  ``Decoder.count()`` yields a CAPPED value: still untrusted, but
size-bounded, so it may drive a loop without tripping R14.

**Propagation.**  Taint flows through assignments (including tuple
unpacking and augmented assignment), calls (any tainted argument taints
the result), containers (a collection holding a tainted element is
tainted), attribute loads on tainted objects, and ``self`` attribute
stores (a per-class attribute summary, folded to fixpoint together with
per-module function summaries: a local function whose return value is
tainted taints its call sites).

**Sanitizers.**  Only a call to a *registered* sanitizer —
:data:`SANCTIONED_SANITIZERS`, the ``validate_*`` API of
:mod:`repro.core.validate` plus the disk-state validators
:func:`repro.durable.records.validate_record` and
:func:`repro.durable.checkpoint.validate_snapshot` — produces a
CLEAN result.  Sanitizers are
value-passing: ``answer = validate_session_answer(answer, ...)`` cleans
``answer``; a bare ``validate_...(answer)`` call cleans nothing, which
keeps the wiring honest.  (``validate_session_answer`` sanctions an
answer *for the session driver*: it checks type and claimed source,
and ``PullSession.conclude`` runs ``validate_propagation_reply`` on the
body before adopting it.)  A comparison guard against a cap
(``if n > MAX_...: raise``) downgrades TAINTED to CAPPED — enough for
R14's allocation bounds, never enough for R13's state sinks.

**Findings.**  The walk records four kinds, consumed by the rules:

``sink``
    A TAINTED or CAPPED argument reaches a protocol-state mutation
    (:data:`STATE_SINKS` — the R4 mutator inventory plus the node /
    journal / session entry points).  → R13.
``alloc``
    A TAINTED integer drives ``range``/``readexactly``/``bytearray`` or
    an allocation-sized multiplication.  → R14.
``swallow`` / ``clamp``
    A validation-failure exception silently discarded, or an untrusted
    value clamped with ``min``/``max`` instead of raising.  → R15.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.lint.engine import FileScope

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
        "decode",
        "loads",
        "read_frame",
        "read_blob",
        "receive_preamble",
        "read_stream_uvarint",
        "decode_record",
        "decode_checkpoint",
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
        "validate_item_name",
        "validate_node_id",
        "validate_oob_reply",
        "validate_propagation_reply",
        "validate_propagation_request",
        "validate_record",
        "validate_session_answer",
        "validate_snapshot",
        "validate_value",
        "validate_version_vector",
    }
)

#: Protocol-state mutation sites: the R4 vector/log mutator inventory,
#: the ``EpidemicNode`` entry points, the session driver, the durable
#: journal's record methods, and the WAL replay executor.  An untrusted
#: argument reaching any of these is an R13 violation.
STATE_SINKS = frozenset(
    {
        # EpidemicNode entry points (protocol state transitions)
        "update",
        "accept_propagation",
        "accept_oob",
        "resolve_conflict",
        "expand_replica_set",
        "send_propagation",
        "intra_node_propagation",
        # not a mutation, but an untrusted name must not index the store
        # (or come back in the error) unvalidated — the client ``get``
        "read",
        # session driver
        "conclude",
        "sync_with",
        "respond",
        # durable journal / replay
        "record",
        "record_update",
        "record_accept",
        "record_oob",
        "record_resolve",
        "record_expand",
        "apply_record",
        # checkpoint restore: the one writer of core state outside core
        "rebuild_node",
        # version-vector / log mutators (R4's inventory)
        "increment",
        "merge_from",
        "record_local_update_by",
        "absorb_item_copy",
        "absorb_item_copies",
        "extend_to",
        "discard_item",
        "add_origin",
    }
)

#: Calls whose integer argument sizes an allocation or iteration.
ALLOC_SINKS = frozenset({"range", "readexactly", "bytearray"})

#: Exceptions that signal a validation failure; silently discarding one
#: on the untrusted path is an R15 violation.
VALIDATION_EXCEPTIONS = frozenset(
    {
        "ValidationError",
        "WireFormatError",
        "WALError",
        "ValueError",
        "KeyError",
        "UnicodeDecodeError",
        "OverflowError",
    }
)

#: Names that look like a bound in a comparison guard.
_CAP_NAME_RE = re.compile(r"(?i)(max|min|cap|limit|budget|bound|n_nodes)")

_NEW_SCOPE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Fixpoint iteration cap; summaries are monotone over small finite
#: sets, so convergence is fast — the cap only guards pathology.
_MAX_ROUNDS = 8


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


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


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
        if isinstance(node, ast.Call) and _call_name(node.func) == "len":
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
            if isinstance(stmt, _FUNC_DEFS):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, _FUNC_DEFS):
                        self.functions[sub.name] = sub
        #: Local functions whose return value carries taint.
        self.tainting: set[str] = set()
        #: ``self.<attr>`` slots ever assigned a tainted value.
        self.attr_taints: dict[str, int] = {}


class _FunctionFlow:
    """Forward taint walk over one function body (or the module body).

    The walk mirrors :mod:`repro.lint.asyncflow`'s statement shapes —
    branch joins on ``if``/``match``, once-through loop bodies iterated
    to a local fixpoint, handler entry as the join of body entry and
    exit — but tracks a variable→taint environment instead of pending
    mutations.
    """

    def __init__(
        self,
        ctx: _ModuleContext,
        findings: list[TaintFinding] | None,
    ) -> None:
        self.ctx = ctx
        self.findings = findings
        self.return_taint = CLEAN

    # -- entry points ----------------------------------------------------

    def run_function(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
        env: dict[str, int] = {}
        args = func.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if arg.arg in UNTRUSTED_PARAMS:
                env[arg.arg] = TAINTED
        self._exec_block(func.body, env)
        return self.return_taint

    def run_module(self, tree: ast.Module) -> None:
        body = [s for s in tree.body if not isinstance(s, _NEW_SCOPE)]
        self._exec_block(body, {})

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
        if isinstance(node, ast.Constant):
            return CLEAN
        if isinstance(node, ast.Name):
            return env.get(node.id, CLEAN)
        if isinstance(node, ast.Attribute):
            base = self._taint(node.value, env)
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.ctx.attr_taints
            ):
                base = max(base, self.ctx.attr_taints[node.attr])
            return base
        if isinstance(node, ast.Subscript):
            return self._taint(node.value, env)
        if isinstance(node, ast.Call):
            return self._call_taint(node, env)
        if isinstance(node, ast.BinOp):
            left = self._taint(node.left, env)
            right = self._taint(node.right, env)
            worst = max(left, right)
            if isinstance(node.op, ast.Mult) and worst >= TAINTED:
                self._record(
                    node,
                    "alloc",
                    "tainted integer sizes a multiplication (allocation) "
                    "without a cap check",
                )
            return worst
        if isinstance(node, ast.BoolOp):
            return max(self._taint(v, env) for v in node.values)
        if isinstance(node, ast.UnaryOp):
            return self._taint(node.operand, env)
        if isinstance(node, ast.Compare):
            # Evaluate operands for nested calls/findings; the boolean
            # result itself is clean.
            self._taint(node.left, env)
            for comparator in node.comparators:
                self._taint(comparator, env)
            return CLEAN
        if isinstance(node, ast.IfExp):
            self._taint(node.test, env)
            return max(self._taint(node.body, env), self._taint(node.orelse, env))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            if not node.elts:
                return CLEAN
            return max(self._taint(e, env) for e in node.elts)
        if isinstance(node, ast.Dict):
            worst = CLEAN
            for key in node.keys:
                if key is not None:
                    worst = max(worst, self._taint(key, env))
            for value in node.values:
                worst = max(worst, self._taint(value, env))
            return worst
        if isinstance(node, ast.Starred):
            return self._taint(node.value, env)
        if isinstance(node, ast.Await):
            return self._taint(node.value, env)
        if isinstance(node, ast.JoinedStr):
            worst = CLEAN
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    worst = max(worst, self._taint(part.value, env))
            return worst
        if isinstance(node, ast.NamedExpr):
            taint = self._taint(node.value, env)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = taint
            return taint
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            inner = dict(env)
            worst_iter = CLEAN
            for gen in node.generators:
                taint = self._taint(gen.iter, inner)
                worst_iter = max(worst_iter, taint)
                self._bind_target(gen.target, taint, inner)
                for cond in gen.ifs:
                    self._taint(cond, inner)
            if isinstance(node, ast.DictComp):
                return max(
                    self._taint(node.key, inner), self._taint(node.value, inner)
                )
            return self._taint(node.elt, inner)
        if isinstance(node, ast.Lambda):
            return CLEAN
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            taint = self._taint(node.value, env)
            self.return_taint = max(self.return_taint, taint)
            return CLEAN
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._taint(part, env)
            return CLEAN
        # Conservative default: join over child expressions.
        worst = CLEAN
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                worst = max(worst, self._taint(child, env))
        return worst

    def _call_taint(self, node: ast.Call, env: dict[str, int]) -> int:
        name = _call_name(node.func)
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

    # -- statements ------------------------------------------------------

    def _exec_block(
        self, body: Sequence[ast.stmt], env: dict[str, int]
    ) -> dict[str, int] | None:
        """Walk statements; returns the exit environment, or ``None``
        when every path through the block terminates."""
        current: dict[str, int] | None = env
        for stmt in body:
            if current is None:
                break
            current = self._exec_stmt(stmt, current)
        return current

    @staticmethod
    def _join(
        a: dict[str, int] | None, b: dict[str, int] | None
    ) -> dict[str, int] | None:
        if a is None:
            return b
        if b is None:
            return a
        joined = dict(a)
        for name, taint in b.items():
            if taint > joined.get(name, CLEAN):
                joined[name] = taint
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

    def _exec_stmt(
        self, stmt: ast.stmt, env: dict[str, int]
    ) -> dict[str, int] | None:
        if isinstance(stmt, ast.Assign):
            taint = self._taint(stmt.value, env)
            for target in stmt.targets:
                self._bind_target(target, taint, env)
            return env
        if isinstance(stmt, ast.AugAssign):
            taint = self._taint(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                taint = max(taint, env.get(stmt.target.id, CLEAN))
            self._bind_target(stmt.target, taint, env)
            return env
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind_target(stmt.target, self._taint(stmt.value, env), env)
            return env
        if isinstance(stmt, ast.Expr):
            self._taint(stmt.value, env)
            return env
        if isinstance(stmt, ast.Return):
            self.return_taint = max(self.return_taint, self._taint(stmt.value, env))
            return None
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._taint(stmt.exc, env)
            return None
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return None
        if isinstance(stmt, ast.If):
            guard = self._cap_guard_name(stmt.test, env)
            self._taint(stmt.test, env)
            out_body = self._exec_block(stmt.body, dict(env))
            out_else = self._exec_block(stmt.orelse, dict(env))
            joined = self._join(out_body, out_else)
            if joined is not None and guard is not None and out_body is None:
                # ``if <var> past cap: raise`` — surviving means bounded.
                if joined.get(guard, CLEAN) == TAINTED:
                    joined[guard] = CAPPED
            return joined if joined is not None else None
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taint = self._taint(stmt.iter, env)
            loop_env = dict(env)
            self._bind_target(stmt.target, iter_taint, loop_env)
            for _ in range(2):
                out = self._exec_block(stmt.body, dict(loop_env))
                merged = self._join(loop_env, out)
                if merged == loop_env:
                    break
                loop_env = merged if merged is not None else loop_env
            out_else = self._exec_block(stmt.orelse, dict(loop_env))
            return self._join(loop_env, out_else)
        if isinstance(stmt, ast.While):
            self._taint(stmt.test, env)
            loop_env = dict(env)
            for _ in range(2):
                out = self._exec_block(stmt.body, dict(loop_env))
                merged = self._join(loop_env, out)
                if merged == loop_env:
                    break
                loop_env = merged if merged is not None else loop_env
            out_else = self._exec_block(stmt.orelse, dict(loop_env))
            return self._join(loop_env, out_else)
        if isinstance(stmt, ast.Try):
            out_body = self._exec_block(stmt.body, dict(env))
            handler_entry = self._join(dict(env), out_body)
            exits = out_body
            for handler in stmt.handlers:
                h_env = dict(handler_entry) if handler_entry is not None else {}
                if handler.name is not None:
                    h_env[handler.name] = CLEAN
                exits = self._join(exits, self._exec_block(handler.body, h_env))
            out_else = (
                self._exec_block(stmt.orelse, dict(out_body))
                if out_body is not None and stmt.orelse
                else out_body
            )
            exits = self._join(exits, out_else)
            if stmt.finalbody:
                if exits is None:
                    # Walk the finally for findings, but stay dead.
                    self._exec_block(stmt.finalbody, dict(env))
                    return None
                exits = self._exec_block(stmt.finalbody, dict(exits))
            return exits
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._taint(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, taint, env)
            return self._exec_block(stmt.body, env)
        if isinstance(stmt, ast.Match):
            subject = self._taint(stmt.subject, env)
            out: dict[str, int] | None = None
            for case in stmt.cases:
                case_env = dict(env)
                for captured in ast.walk(case.pattern):
                    if isinstance(captured, ast.MatchAs) and captured.name:
                        case_env[captured.name] = max(
                            case_env.get(captured.name, CLEAN), subject
                        )
                out = self._join(out, self._exec_block(case.body, case_env))
            return self._join(out, env)
        if isinstance(stmt, ast.Assert):
            self._taint(stmt.test, env)
            return env
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
            return env
        if isinstance(stmt, _NEW_SCOPE):
            return env  # nested scopes are analyzed separately (or not at all)
        return env  # imports, global/nonlocal, pass, ...


def _scan_swallows(tree: ast.Module, findings: list[TaintFinding]) -> None:
    """Syntactic R15 half: ``except <validation error>: pass``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught: set[str] = set()
        types = node.type
        if types is None:
            continue  # bare except is R12's business
        elts = types.elts if isinstance(types, ast.Tuple) else [types]
        for elt in elts:
            name = (
                elt.id
                if isinstance(elt, ast.Name)
                else elt.attr
                if isinstance(elt, ast.Attribute)
                else None
            )
            if name is not None:
                caught.add(name)
        hit = sorted(caught & VALIDATION_EXCEPTIONS)
        if not hit:
            continue
        silent = all(
            isinstance(s, (ast.Pass, ast.Continue))
            or (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
            for s in node.body
        )
        if silent:
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

    # Fixpoint over function summaries and self-attribute taints: both
    # grow monotonically, so rerun until neither changes.
    for _ in range(_MAX_ROUNDS):
        before = (frozenset(ctx.tainting), dict(ctx.attr_taints))
        for name, func in ctx.functions.items():
            flow = _FunctionFlow(ctx, findings=None)
            if flow.run_function(func) >= CAPPED:
                ctx.tainting.add(name)
        if (frozenset(ctx.tainting), dict(ctx.attr_taints)) == before:
            break

    findings: list[TaintFinding] = []
    for func in ctx.functions.values():
        _FunctionFlow(ctx, findings).run_function(func)
    _FunctionFlow(ctx, findings).run_module(tree)
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
