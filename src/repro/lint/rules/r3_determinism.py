"""R3 — nondeterminism in simulation code.

A simulation is a pure function of its configuration and seed, or it
cannot replay its own failures.  Inside ``src/repro``:

* no module-level ``random.*`` calls and no ``from random import
  <function>`` — randomness flows through an injected, seeded
  ``random.Random(seed)``, and ``random.Random()`` needs that seed;
* no wall-clock reads (``time.time()``, ``time.monotonic()``,
  ``time.perf_counter()`` and their ``_ns`` variants) — simulated time
  comes from :mod:`repro.substrate.clock`;
* no OS entropy (``uuid.uuid4()``, ``uuid.uuid1()``, ``os.urandom()``);
* no ``id()``-based ordering (``sorted(..., key=id)``);
* no iteration over a bare ``set``/``frozenset`` expression and no
  ``hash()`` of one — the order depends on the per-process hash seed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation

__all__ = ["DeterminismRule"]

_WALL_CLOCK_FUNCS = frozenset(
    {
        "time",
        "monotonic",
        "perf_counter",
        "time_ns",
        "monotonic_ns",
        "perf_counter_ns",
    }
)

#: OS-entropy sources by module: unseeded randomness under other names.
_ENTROPY_FUNCS = {
    "uuid": frozenset({"uuid1", "uuid4"}),
    "os": frozenset({"urandom"}),
}


def _is_set_expression(node: ast.expr) -> bool:
    """A set display, a set comprehension, or a set()/frozenset() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class DeterminismRule(LintRule):
    rule_id = "R3"
    name = "determinism"
    summary = (
        "simulation code must use injected seeded RNGs and simulated "
        "clocks, never global random/time or set iteration order"
    )

    def applies_to(self, scope: FileScope) -> bool:
        return scope.in_src

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(node, scope)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import(node, scope)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expression(node.iter):
                    yield self.violation(
                        scope,
                        node.iter,
                        "iterating a set: order depends on the per-process "
                        "hash seed; sort it or keep a list",
                    )

    def _check_call(self, node: ast.Call, scope: FileScope) -> Iterator[Violation]:
        func = node.func
        for keyword in node.keywords:
            if (
                keyword.arg == "key"
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id == "id"
            ):
                yield self.violation(
                    scope,
                    node,
                    "ordering by key=id sorts on allocation addresses, "
                    "which differ every run; order by a stable field "
                    "instead",
                )
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module, attr = func.value.id, func.attr
            if attr in _ENTROPY_FUNCS.get(module, frozenset()):
                yield self.violation(
                    scope,
                    node,
                    f"{module}.{attr}() draws OS entropy (unseeded "
                    "randomness); derive identifiers from the run seed "
                    "and node/event counters",
                )
            if module == "random":
                if attr == "Random":
                    if not node.args and not node.keywords:
                        yield self.violation(
                            scope,
                            node,
                            "random.Random() without a seed is OS-seeded; "
                            "pass an explicit seed so runs are replayable",
                        )
                elif attr != "SystemRandom":
                    yield self.violation(
                        scope,
                        node,
                        f"random.{attr}() uses the shared process-global "
                        "RNG; use an injected seeded random.Random instead",
                    )
            elif module == "time" and attr in _WALL_CLOCK_FUNCS:
                yield self.violation(
                    scope,
                    node,
                    f"time.{attr}() reads the wall clock; simulation time "
                    "comes from repro.substrate.clock",
                )
        elif (
            isinstance(func, ast.Name)
            and func.id == "hash"
            and len(node.args) == 1
            and _is_set_expression(node.args[0])
        ):
            yield self.violation(
                scope,
                node,
                "hashing a set of strings is hash-seed dependent; hash a "
                "sorted tuple instead",
            )

    def _check_import(
        self, node: ast.ImportFrom, scope: FileScope
    ) -> Iterator[Violation]:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in ("Random", "SystemRandom"):
                    yield self.violation(
                        scope,
                        node,
                        f"`from random import {alias.name}` imports a "
                        "shared-global-RNG function; inject a seeded "
                        "random.Random instead",
                    )
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_FUNCS:
                    yield self.violation(
                        scope,
                        node,
                        f"`from time import {alias.name}` pulls in the wall "
                        "clock; simulation time comes from "
                        "repro.substrate.clock",
                    )
        elif node.module in _ENTROPY_FUNCS:
            entropy = _ENTROPY_FUNCS[node.module]
            for alias in node.names:
                if alias.name in entropy:
                    yield self.violation(
                        scope,
                        node,
                        f"`from {node.module} import {alias.name}` pulls in "
                        "OS entropy (unseeded randomness); derive "
                        "identifiers from the run seed and counters",
                    )
