"""R9 — blocking calls and unbounded waits inside ``async def``.

One replica process is one event loop: a blocking call in any
coroutine stalls every connection the node serves.  Inside ``async
def`` bodies in ``src/repro/net``: no ``time.sleep``, no synchronous
socket construction or resolution, no blocking file or process I/O
(builtin ``open``/``input``, ``subprocess.*``, ``os.system``/``os.popen``),
and no bare ``await <expr>.wait()`` — bound it with
``asyncio.wait_for``.  A wait unbounded by design is annotated in
place with ``# pragma: blocking <reason>``; the reason is mandatory,
and the pragma audit flags pragmas whose line no longer blocks.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileScope, LintRule, Violation
from repro.lint.flow import iter_awaits

__all__ = ["BlockingAsyncRule"]

#: ``module.function`` calls that block the event loop outright.
_BLOCKING_MODULE_CALLS = {
    "time": frozenset({"sleep"}),
    "socket": frozenset(
        {"socket", "create_connection", "getaddrinfo", "gethostbyname"}
    ),
    "subprocess": frozenset(
        {"run", "Popen", "call", "check_call", "check_output"}
    ),
    "os": frozenset({"system", "popen", "wait", "waitpid"}),
}

#: Builtin calls that block (file I/O; ``input`` reads a TTY).
_BLOCKING_BUILTINS = frozenset({"open", "input"})

#: Remedy, keyed by the module of the blocking call.
_REMEDY = {
    "time": "await asyncio.sleep(...)",
    "socket": "asyncio.open_connection / asyncio.start_server",
    "subprocess": "asyncio.create_subprocess_exec",
    "os": "an asyncio subprocess or executor",
}


class BlockingAsyncRule(LintRule):
    rule_id = "R9"
    name = "no-blocking-in-async"
    summary = (
        "async code must not block the event loop (time.sleep, sync "
        "socket/file/subprocess I/O) or await .wait() without a bound"
    )

    def applies_to(self, scope: FileScope) -> bool:
        return scope.in_subpackage("net")

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        seen: set[tuple[int, int]] = set()
        for function in ast.walk(tree):
            if not isinstance(function, ast.AsyncFunctionDef):
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                key = (node.lineno, node.col_offset)
                if key in seen:
                    continue
                finding = self._classify_call(node, scope)
                if finding is not None:
                    seen.add(key)
                    yield finding
            for await_node in iter_awaits(function):
                finding = self._classify_await(await_node, scope)
                if finding is not None:
                    yield finding

    def _classify_call(
        self, node: ast.Call, scope: FileScope
    ) -> Violation | None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _BLOCKING_BUILTINS:
            return self.violation(
                scope,
                node,
                f"`{func.id}()` blocks the event loop; do file/TTY I/O "
                "outside coroutines or annotate with "
                "`# pragma: blocking <reason>`",
            )
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            module, attr = func.value.id, func.attr
            if attr in _BLOCKING_MODULE_CALLS.get(module, frozenset()):
                return self.violation(
                    scope,
                    node,
                    f"`{module}.{attr}()` blocks the event loop inside an "
                    f"async function; use {_REMEDY[module]} or annotate "
                    "with `# pragma: blocking <reason>`",
                )
        return None

    def _classify_await(
        self, node: ast.Await, scope: FileScope
    ) -> Violation | None:
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "wait"
            and not value.args
            and not value.keywords
        ):
            return self.violation(
                scope,
                node,
                "unbounded `await ....wait()`; wrap it in "
                "`asyncio.wait_for(..., timeout)` or annotate a "
                "wait that is unbounded by design with "
                "`# pragma: blocking <reason>`",
            )
        return None
