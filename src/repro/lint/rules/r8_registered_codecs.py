"""R8 — every wire message must have a registered binary codec.

Inside ``repro.core`` (where every message a replica ships lives),
each non-``Protocol`` class defining ``wire_size`` must be registered
in :func:`repro.wire.registry.registered_codecs` under this module's
name, and every registration claiming this module must match such a
class in the file.  Otherwise a :mod:`repro.net` replica dies with
``WireFormatError`` the first time the message ships, or a stale
registration holds a type id hostage.  The check is per file, AST
against the live registry.  The baselines' messages run in the
simulator only, which charges their modelled ``wire_size()``; they
have no codec, so the rule does not audit ``repro.baselines``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation
from repro.lint.flow import message_classes

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


class RegisteredCodecRule(LintRule):
    rule_id = "R8"
    name = "registered-codec"
    summary = (
        "every class defining wire_size must have a codec in the wire "
        "registry, and no registration may point at a vanished message"
    )

    def applies_to(self, scope: FileScope) -> bool:
        # Every shipped message class lives in repro.core; scoping keeps
        # the other rules' fixtures (which define wire_size classes
        # elsewhere) out of R8's blast radius.
        return scope.in_subpackage("core")

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        module = _module_name(scope)
        if module is None:
            return
        # Imported lazily so `python -m repro.lint` only pays for (and
        # only requires) the protocol packages when R8 actually runs.
        from repro.wire import registered_codecs

        registered_here = {
            codec.cls.__name__: codec
            for codec in registered_codecs()
            if codec.cls.__module__ == module
        }
        defined_here = {node.name: node for node in message_classes(tree)}
        for name, node in defined_here.items():
            if name not in registered_here:
                yield self.violation(
                    scope,
                    node,
                    f"message class {name} defines wire_size but has no "
                    "codec in repro.wire — a repro.net replica would "
                    "raise WireFormatError the first time it ships",
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
