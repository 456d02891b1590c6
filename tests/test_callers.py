"""The caller guard: every public name in ``src/repro`` has a caller in
``src/``, ``benchmarks/`` or ``examples/``, or a row in the "Kept
without a caller in this repo" table of ``docs/API.md`` that says why a
downstream user needs it.

A public name is a module-level function or class, or a method or
property of a public class, whose name does not start with ``_``.  It
counts as called when its identifier appears as a name, an attribute or
the string argument of ``getattr``/``hasattr``/``setattr`` anywhere in
the three trees except inside a function or method of the same name: a
recursive call, or a wrapper that only forwards to a same-named method
one layer down, is no caller.  Its own ``def``, ``__all__`` lists and
import statements (so package ``__init__`` re-exports) do not count
either.  Matching is by name, so an override counts as called whenever
its base method's name is called.  A table row for a class covers its
methods.  Like the knobs guard, a row that names nothing, or a name
that now has a caller, fails too.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_TREES = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")
API = ROOT / "docs" / "API.md"
TABLE = "\n## Kept without a caller in this repo\n"
ATTRIBUTE_CALLS = {"getattr", "hasattr", "setattr"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public(name: str) -> bool:
    return not name.startswith("_")


@functools.cache
def public_names() -> dict[str, str]:
    """``{qualified name: identifier}`` for every public definition:
    ``module.func``, ``module.Class`` and ``module.Class.method``."""
    names: dict[str, str] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _public(node.name):
                    names[f"{module}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                names[f"{module}.{node.name}"] = node.name
                for member in node.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and _public(member.name):
                        names[f"{module}.{node.name}.{member.name}"] = member.name
    return names


class _Uses(ast.NodeVisitor):
    """The identifiers a module uses, each outside every function or
    method of its own name."""

    def __init__(self) -> None:
        self.used: set[str] = set()
        self.enclosing: list[str] = []

    def _use(self, identifier: str) -> None:
        if identifier not in self.enclosing:
            self.used.add(identifier)

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node: ast.Name) -> None:
        self._use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ATTRIBUTE_CALLS
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            self._use(node.args[1].value)
        self.generic_visit(node)


@functools.cache
def used_identifiers() -> set[str]:
    uses = _Uses()
    for tree in CALLER_TREES:
        for path in tree.rglob("*.py"):
            uses.visit(_parse(path))
    return uses.used


def table_rows() -> list[tuple[str, str]]:
    """``(name, reason)`` for every row of the kept-without-a-caller
    table, the name as ``module.Name`` or ``module.Class.method``."""
    section = API.read_text(encoding="utf-8").split(TABLE, 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        name, reason = (cell.strip() for cell in line.strip().strip("|").split("|", 1))
        rows.append((name.strip("`"), reason))
    return rows


def _covered(qualified: str, kept: set[str]) -> bool:
    parts = qualified.split(".")
    return any(".".join(parts[:n]) in kept for n in range(1, len(parts) + 1))


def uncalled() -> list[str]:
    used = used_identifiers()
    return sorted(
        qualified
        for qualified, identifier in public_names().items()
        if identifier not in used
    )


def test_table_rows_are_unique_and_give_a_reason():
    rows = table_rows()
    assert len({name for name, _ in rows}) == len(rows)
    assert [name for name, reason in rows if not reason] == []


def test_every_public_name_has_a_caller_or_a_row():
    kept = {name for name, _ in table_rows()}
    assert [name for name in uncalled() if not _covered(name, kept)] == []


def test_every_row_names_a_public_name():
    defined = set(public_names())
    assert sorted(name for name, _ in table_rows() if name not in defined) == []


def test_no_row_names_a_called_name():
    """A row is for a name nothing in the repo calls; once something
    does, the row goes."""
    used = used_identifiers()
    names = public_names()
    called = sorted(
        name
        for name, _ in table_rows()
        if name in names and names[name] in used
    )
    assert called == []
