"""R8 — every wire message must have a registered binary codec.

**Why.**  The network's encoded mode (``REPRO_WIRE=1``) serializes
every delivered message through the type registry in
:mod:`repro.wire.registry`.  A message class that defines ``wire_size``
(the R6 marker of an on-the-wire message) but has no codec registration
is a landmine: the modelled mode ships it happily, and the first
encoded-mode run that touches that protocol path dies with
``WireFormatError`` at runtime.  The reverse defect — a registration
pointing at a class that no longer defines ``wire_size`` — is dead
protocol surface holding a stable type id hostage, exactly the decay
the stale-pragma audit exists for; R8 treats it the same way.

**Rule.**  Inside ``repro.core`` and ``repro.baselines`` (where every
real message class lives), each non-``Protocol`` class defining
``wire_size`` must appear in :func:`repro.wire.registry.
registered_codecs` under this module's name, and every registration
claiming this module must match a ``wire_size``-defining class in the
file.  The check is per-file and AST-against-registry, so a fixture
that *imitates* a message module is audited against what the real
registry says about that path — same mechanics as the pragma audit.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation
from repro.lint.rules.r6_frozen_messages import _base_names

__all__ = ["RegisteredCodecRule"]


def _module_name(scope: FileScope) -> str | None:
    """Dotted module name for a file inside the package
    (``('repro', 'core', 'messages.py')`` → ``repro.core.messages``)."""
    if scope.package is None:
        return None
    parts = list(scope.package)
    last = parts[-1]
    if not last.endswith(".py"):
        return None
    parts[-1] = last[: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _wire_size_classes(tree: ast.Module) -> dict[str, ast.ClassDef]:
    """Non-Protocol classes in the file that define ``wire_size``."""
    found: dict[str, ast.ClassDef] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        defines_wire_size = any(
            isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            and member.name == "wire_size"
            for member in node.body
        )
        if defines_wire_size and "Protocol" not in _base_names(node):
            found[node.name] = node
    return found


class RegisteredCodecRule(LintRule):
    rule_id = "R8"
    name = "registered-codec"
    summary = (
        "every class defining wire_size must have a codec in the wire "
        "registry, and no registration may point at a vanished message"
    )

    def applies_to(self, scope: FileScope) -> bool:
        # Every real message class lives in repro.core or
        # repro.baselines; scoping matches R7 and keeps the other
        # rules' fixtures (which define wire_size classes elsewhere)
        # out of R8's blast radius.
        return scope.in_subpackage("core", "baselines")

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        module = _module_name(scope)
        if module is None:
            return
        # Imported lazily so `python -m repro.lint` only pays for (and
        # only requires) the protocol packages when R8 actually runs.
        # repro.wire registers the core's codecs, repro.baselines its own.
        if scope.in_subpackage("baselines"):
            import repro.baselines  # noqa: F401
        from repro.wire import registered_codecs

        registered_here = {
            codec.cls.__name__: codec
            for codec in registered_codecs()
            if codec.cls.__module__ == module
        }
        defined_here = _wire_size_classes(tree)
        for name, node in defined_here.items():
            if name not in registered_here:
                yield self.violation(
                    scope,
                    node,
                    f"message class {name} defines wire_size but has no "
                    "codec in repro.wire — encoded mode "
                    "(REPRO_WIRE=1) would raise WireFormatError the "
                    "first time it ships",
                )
        for name, codec in registered_here.items():
            if name not in defined_here:
                yield self.violation(
                    scope,
                    tree,
                    f"stale codec registration: type id {codec.type_id} "
                    f"points at {module}.{name}, which no longer defines "
                    "a wire_size message class — retire the registration "
                    "(the type id stays burned)",
                )
