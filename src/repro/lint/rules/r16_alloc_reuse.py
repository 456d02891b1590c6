"""R16 — fresh allocations on per-round hot paths with a reuse API.

The wire codec leases pooled encoder buffers (``WireCodec._acquire``)
and :class:`~repro.core.version_vector.VersionVector` has in-place
mutators, so steady-state rounds allocate nothing.  Inside the
per-round hot-path functions of ``repro.cluster`` and ``repro.wire``
(``HOT_PATH_NAMES``), ``repro.cluster`` may not construct a fresh
``VersionVector`` (constructor, ``.zero``, ``.from_counts``), and
neither may allocate a fresh ``bytearray``.  Decode-side construction
is exempt by scoping.  An inherent allocation is annotated in place
with ``# pragma: fresh-alloc <reason>``; the reason is mandatory, and
the pragma audit flags pragmas whose line no longer allocates.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation

__all__ = ["AllocReuseRule", "HOT_PATH_NAMES"]

#: Functions on the per-round critical path: the simulator's round and
#: session loop (including network delivery) and the codec's encode
#: direction.
HOT_PATH_NAMES = frozenset(
    {
        # repro.cluster — executed once per round / per session.
        "run_round",
        "_round",
        "_random_sessions",
        "_full_mesh_sessions",
        "_run_session",
        "session_step",
        "deliver",
        # repro.wire — executed once per frame on the encode direction.
        "encode",
        "_assemble_frame",
        "vv",
    }
)

#: ``VersionVector`` classmethod constructors (the plain call is
#: matched separately).
_VV_FACTORIES = frozenset({"zero", "from_counts"})


def _fresh_vv(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "VersionVector"
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _VV_FACTORIES
        and isinstance(func.value, ast.Name)
        and func.value.id == "VersionVector"
    )


def _fresh_bytearray(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Name) and call.func.id == "bytearray"


class AllocReuseRule(LintRule):
    rule_id = "R16"
    name = "alloc-reuse"
    summary = (
        "per-round hot paths reuse scratch state: no fresh "
        "VersionVector/bytearray where a pooled/in-place API exists"
    )

    def applies_to(self, scope: FileScope) -> bool:
        return scope.in_subpackage("cluster", "wire")

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        check_vv = scope.in_subpackage("cluster")
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in HOT_PATH_NAMES:
                continue
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                if check_vv and _fresh_vv(sub):
                    yield self.violation(
                        scope,
                        sub,
                        f"`{node.name}` constructs a fresh VersionVector "
                        "on the per-round path; hoist the scratch vector "
                        "and reuse it in place (`merge_from`, "
                        "`increment`), or annotate an inherent "
                        "allocation with `# pragma: fresh-alloc <reason>`",
                    )
                elif _fresh_bytearray(sub):
                    yield self.violation(
                        scope,
                        sub,
                        f"`{node.name}` allocates a fresh bytearray on "
                        "the encode hot path; lease a pooled encoder "
                        "buffer (`WireCodec._acquire`) instead, or "
                        "annotate an inherent allocation with "
                        "`# pragma: fresh-alloc <reason>`",
                    )
