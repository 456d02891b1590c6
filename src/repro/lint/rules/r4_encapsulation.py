"""R4 — mutating DBVV / IVV / log-vector internals outside ``repro.core``.

The DBVV-equals-IVV-column-sums equality and the one-record-per-item
log rule hold only if every write goes through :mod:`repro.core`.
Outside it, code in ``src/repro`` may not:

* call vector mutators (``increment``, ``merge_from``, ...) on an
  attribute named ``dbvv``, ``ivv`` or ``aux_ivv`` of another object;
* assign to such an attribute or to its components;
* call log-vector mutators (``add``, ``discard_item``, ``restore``)
  through a ``.log`` attribute;
* touch the private internals of the core structures (``_components``,
  ``_by_item``, ``_head``, ...) on any object other than ``self``.

The one sanctioned writer,
:func:`repro.durable.checkpoint.rebuild_node`, carries explicit
``# lint: skip=R4`` pragmas (as do the explorer's deliberate protocol
mutations).  Tests are exempt: white-box tests corrupt state on
purpose.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation

__all__ = ["EncapsulationRule"]

#: Attributes that hold protocol version-vector state on a node/item.
_VECTOR_ATTRS = frozenset({"dbvv", "ivv", "aux_ivv"})

#: In-place mutators of :class:`~repro.core.version_vector.VersionVector`.
_VECTOR_MUTATORS = frozenset(
    {"increment", "merge_from", "record_local_update_by", "absorb_item_copy",
     "absorb_item_copies"}
)

#: Mutators of :class:`~repro.core.log_vector.LogVector` / components.
_LOG_MUTATORS = frozenset({"add", "discard_item", "restore"})

#: Private internals of the core data structures (linked lists, pointer
#: maps, dense counts) that nothing outside core may touch on another
#: object.
_PRIVATE_INTERNALS = frozenset(
    {
        "_components",
        "_by_item",
        "_head",
        "_tail",
        "_item_head",
        "_item_tail",
        "_counts",
        "_next_seq",
        "_floor",
        "_entries",
        "_histories",
    }
)


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _vector_attribute(node: ast.expr) -> bool:
    """``<expr>.dbvv`` / ``<expr>.ivv`` / ``<expr>.aux_ivv``."""
    return isinstance(node, ast.Attribute) and node.attr in _VECTOR_ATTRS


class EncapsulationRule(LintRule):
    rule_id = "R4"
    name = "encapsulation"
    summary = (
        "DBVV/IVV/log-vector state is written only inside repro.core; "
        "drivers and experiments read, never mutate"
    )

    def applies_to(self, scope: FileScope) -> bool:
        return scope.in_src and not scope.in_subpackage("core")

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(node, scope)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    yield from self._check_assignment(target, scope)
            elif isinstance(node, ast.Attribute):
                if node.attr in _PRIVATE_INTERNALS and not _is_self(node.value):
                    yield self.violation(
                        scope,
                        node,
                        f"access to core-structure internal `{node.attr}` "
                        "outside repro.core breaks the P(x)/linked-list "
                        "encapsulation; use the public API",
                    )

    def _check_call(self, node: ast.Call, scope: FileScope) -> Iterator[Violation]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in _VECTOR_MUTATORS and _vector_attribute(func.value):
            owner = func.value
            # An object mutating its *own* vector state (self.dbvv...) is
            # that class's business; the rule guards other objects' state.
            if isinstance(owner, ast.Attribute) and not _is_self(owner.value):
                yield self.violation(
                    scope,
                    node,
                    f"`.{owner.attr}.{func.attr}(...)` mutates protocol "
                    "vector state outside repro.core; the DBVV/IVV "
                    "maintenance rules live in core only",
                )
        elif (
            func.attr in _LOG_MUTATORS
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "log"
            and not _is_self(func.value.value)
        ):
            yield self.violation(
                scope,
                node,
                f"`.log.{func.attr}(...)` mutates the log vector outside "
                "repro.core; the one-record-per-item rule lives in core "
                "only",
            )

    def _check_assignment(
        self, target: ast.expr, scope: FileScope
    ) -> Iterator[Violation]:
        if _vector_attribute(target) and not _is_self(
            target.value  # type: ignore[attr-defined]
        ):
            attr = target.attr  # type: ignore[attr-defined]
            yield self.violation(
                scope,
                target,
                f"assignment to `.{attr}` replaces protocol vector state "
                "outside repro.core",
            )
        elif isinstance(target, ast.Subscript) and _vector_attribute(target.value):
            attr = target.value.attr  # type: ignore[attr-defined]
            yield self.violation(
                scope,
                target,
                f"assignment to a `.{attr}[...]` component bypasses the "
                "DBVV/IVV maintenance rules; only repro.core writes vector "
                "components",
            )
