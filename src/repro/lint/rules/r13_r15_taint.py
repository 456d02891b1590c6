"""R13–R15 — the trust boundary, read off one taint report per file.

Every frame :mod:`repro.wire` decodes, every client-op payload
:mod:`repro.net` parses, and every WAL record and checkpoint
:mod:`repro.durable` reads back is attacker-writable.  The taint engine
(:mod:`repro.lint.taint`) analyses a module once; each rule reports
one kind of its findings:

* **R13** (``sink``) — no untrusted value reaches a protocol-state
  mutation without a registered validator; a cap guard bounds a value
  but does not make it trusted.  In ``repro.net``, ``repro.durable``
  and the session driver ``repro/core/session.py``.
* **R14** (``alloc``) — no decoded integer sizes an allocation, range
  or loop before a cap check (a forged length prefix is a memory
  bomb).  In ``repro.wire``, ``repro.net`` and ``repro.durable``.
* **R15** (``swallow`` / ``clamp``) — a validation failure is logged
  or re-raised as a typed error, never silently dropped
  (``except ValueError: pass``) or clamped (``min(n, MAX)``).  Where
  R13 applies, plus ``repro.wire``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation
from repro.lint.taint import analyze_module

__all__ = [
    "SwallowedValidationRule",
    "TaintedAllocationRule",
    "TaintedStateSinkRule",
]


def _trust_boundary(scope: FileScope, *subpackages: str) -> bool:
    """``subpackages`` of ``repro``, plus the session driver."""
    return scope.in_subpackage(*subpackages) or (
        scope.in_subpackage("core") and scope.filename == "session.py"
    )


class _TaintRule(LintRule):
    """A rule that reports the taint findings of some ``kinds``."""

    kinds: tuple[str, ...] = ()

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        for finding in analyze_module(tree, scope).of_kind(*self.kinds):
            yield Violation(
                self.rule_id, scope.posix, finding.line, finding.col + 1, finding.detail
            )


class TaintedStateSinkRule(_TaintRule):
    rule_id = "R13"
    name = "tainted-state-sink"
    summary = (
        "wire-decoded values must pass a repro.core.validate sanitizer "
        "before reaching a protocol-state mutation"
    )
    kinds = ("sink",)

    def applies_to(self, scope: FileScope) -> bool:
        return _trust_boundary(scope, "net", "durable")


class TaintedAllocationRule(_TaintRule):
    rule_id = "R14"
    name = "tainted-allocation"
    summary = (
        "decoded integers must be cap-checked before sizing an "
        "allocation, range, or loop"
    )
    kinds = ("alloc",)

    def applies_to(self, scope: FileScope) -> bool:
        return scope.in_subpackage("wire", "net", "durable")


class SwallowedValidationRule(_TaintRule):
    rule_id = "R15"
    name = "swallowed-validation"
    summary = (
        "validation failures on the untrusted path must be logged or "
        "re-raised, never silently swallowed or clamped"
    )
    kinds = ("swallow", "clamp")

    def applies_to(self, scope: FileScope) -> bool:
        return _trust_boundary(scope, "wire", "net", "durable")
