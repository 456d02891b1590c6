"""The lint engine: file discovery, scoping, rule dispatch, suppression.

The engine is deliberately small: it parses each file once with
:mod:`ast`, classifies the file into a *scope* (which part of the tree
it belongs to — ``repro.core``, ``repro.cluster``, tests, ...), asks
every registered rule that applies to that scope for violations — once
per file — and from those findings both filters out what an inline
pragma suppresses and audits the pragmas that suppress nothing.

Scoping is path-based and uses the *last* ``src/repro`` marker in the
path, so fixture files under ``tests/lint/fixtures/src/repro/...`` are
classified exactly like the real module they imitate — that is how the
fixture tests exercise path-scoped rules without touching real code.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "FileScope",
    "LintRule",
    "Violation",
    "collect_files",
    "lint_file",
    "lint_paths",
    "make_scope",
]

#: Directory names never walked by default: generated trees, caches, and
#: the lint fixture corpus (fixtures contain deliberate violations; the
#: fixture tests lint them explicitly via :func:`lint_file`).
EXCLUDED_DIR_NAMES = frozenset(
    {"__pycache__", ".git", ".mypy_cache", ".ruff_cache", "build", "fixtures"}
)

_PRAGMA_LINE = re.compile(r"#\s*lint:\s*skip=([A-Za-z0-9_,\s]+)")
_PRAGMA_FILE = re.compile(r"#\s*lint:\s*skip-file\b")

#: Reason pragmas, ``# pragma: <keyword> <reason>``: each suppresses one
#: rule, and only with a non-empty reason — an unexplained full scan,
#: blocking call or hot-path allocation is exactly what its rule is
#: for.  A bare pragma does not suppress; the audit demands the reason.
#: keyword -> (rule id, what its line does while the pragma is live,
#: what the reason must state).
_REASON_PRAGMAS = {
    "full-scan": ("R7", "scans a full item/node space", "why the scan is inherent"),
    "blocking": ("R9", "blocks or waits unboundedly", "why blocking here is intended"),
    "fresh-alloc": (
        "R16", "allocates on a per-round hot path", "why the allocation is inherent"
    ),
}
#: Group 1 matches only when a reason follows the keyword.
_REASON_PRAGMA_RE = {
    keyword: re.compile(rf"#\s*pragma:\s*{keyword}(?:(\s+\S)|\s*(?:#|$))")
    for keyword in _REASON_PRAGMAS
}


@dataclass(frozen=True)
class Violation:
    """One finding: a rule, a location, and what to do about it."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass(frozen=True)
class FileScope:
    """Where a file sits in the tree, for rule applicability decisions.

    ``package`` is the path split below the last ``src/`` marker whose
    next segment is ``repro`` (e.g. ``('repro', 'core', 'node.py')``),
    or ``None`` for files outside the package (tests, benchmarks,
    examples).
    """

    posix: str
    package: tuple[str, ...] | None

    @property
    def in_src(self) -> bool:
        """True for files that are part of the ``repro`` package."""
        return self.package is not None

    def in_subpackage(self, *names: str) -> bool:
        """True when the file lives in one of the named subpackages
        (``core``, ``cluster``, ...) of ``repro``."""
        return (
            self.package is not None
            and len(self.package) >= 2
            and self.package[1] in names
        )

    @property
    def filename(self) -> str:
        return self.posix.rsplit("/", 1)[-1]


class LintRule:
    """Base class for one checkable rule.

    Subclasses set the class attributes and implement :meth:`check`;
    :meth:`applies_to` restricts the rule to the part of the tree where
    its invariant is meaningful (a rule about protocol internals has no
    business flagging an example script).
    """

    #: Stable identifier used in reports and ``# lint: skip=`` pragmas.
    rule_id: str = "R0"
    #: Short kebab-case name shown by ``--list-rules``.
    name: str = "abstract"
    #: One-line description of what the rule guards against.
    summary: str = ""

    def applies_to(self, scope: FileScope) -> bool:
        return True

    def check(self, tree: ast.Module, scope: FileScope) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, scope: FileScope, node: ast.AST, message: str
    ) -> Violation:
        """Build a violation anchored at ``node``."""
        return Violation(
            self.rule_id,
            scope.posix,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            message,
        )


def make_scope(path: str | Path) -> FileScope:
    """Classify ``path``; see :class:`FileScope` for the semantics."""
    posix = Path(path).as_posix()
    parts = posix.split("/")
    package: tuple[str, ...] | None = None
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            package = tuple(parts[i + 1 :])
            break
    return FileScope(posix, package)


def _comments_by_line(source: str) -> dict[int, str]:
    """Comment text (``#`` included) keyed by line number, via
    :mod:`tokenize` — so pragma look-alikes inside docstrings and string
    literals are never mistaken for live pragmas."""
    comments: dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparseable files are reported as PARSE by _check
    return comments


def _reason_pragmas(line: str) -> Iterator[tuple[str, str, re.Match[str]]]:
    """``(keyword, rule id, match)`` for each reason pragma on ``line``."""
    for keyword, pattern in _REASON_PRAGMA_RE.items():
        match = pattern.search(line)
        if match is not None:
            yield keyword, _REASON_PRAGMAS[keyword][0], match


def _suppressed_rules(line: str) -> frozenset[str]:
    suppressed = {
        rule_id
        for _, rule_id, match in _reason_pragmas(line)
        if match.group(1) is not None
    }
    match = _PRAGMA_LINE.search(line)
    if match is not None:
        suppressed.update(
            token.strip() for token in match.group(1).split(",") if token.strip()
        )
    return frozenset(suppressed)


def _check(
    source: str, scope: FileScope, rules: Sequence[LintRule]
) -> tuple[list[Violation], list[Violation]]:
    """One parse and one run of each applicable rule: the findings no
    pragma suppresses, and the pragma-audit findings.

    A file that does not parse yields a single pseudo-violation with
    rule id ``PARSE`` — a broken file must fail the lint run, not slip
    through unchecked — and nothing to audit.
    """
    try:
        tree = ast.parse(source, filename=scope.posix)
    except SyntaxError as exc:
        line, col = exc.lineno or 1, (exc.offset or 0) + 1
        message = f"file does not parse: {exc.msg}"
        return [Violation("PARSE", scope.posix, line, col, message)], []
    raw = [
        violation
        for rule in rules
        if rule.applies_to(scope)
        for violation in rule.check(tree, scope)
    ]
    comments = _comments_by_line(source)
    skip_file = any(
        _PRAGMA_FILE.search(text) for line, text in comments.items() if line <= 5
    )
    kept = [
        violation
        for violation in raw
        if not skip_file
        and violation.rule_id
        not in _suppressed_rules(comments.get(violation.line, ""))
    ]
    kept.sort(key=lambda v: (v.line, v.col, v.rule_id))
    return kept, _audit(raw, comments, skip_file, scope, rules)


def lint_file(
    path: str | Path, rules: Sequence[LintRule], audit: bool = False
) -> list[Violation]:
    """Lint one file from disk; with ``audit``, the stale-pragma
    findings follow the lint findings.

    A stale pragma is one whose line no longer produces the finding it
    suppresses — residue from refactored code that reads as "this line
    is exempt" while exempting nothing today and, worse, silently
    re-arms if the violation ever comes back on a *different* line.
    Its findings use the pseudo rule id ``PRAGMA``, as do skips naming
    an id no rule has (a typo, or a retired rule).  Pragmas for other
    registered rules outside ``rules`` are not judged (a ``--select``
    run cannot know whether an unselected rule still fires)."""
    text = Path(path).read_text(encoding="utf-8")
    kept, stale = _check(text, make_scope(path), rules)
    return kept + stale if audit else kept


def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand the given files/directories into a sorted list of ``.py``
    files, skipping :data:`EXCLUDED_DIR_NAMES` during directory walks
    (a fixture file named explicitly is still linted — the fixture
    tests rely on that).
    """
    collected: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                relative = candidate.relative_to(path)
                if any(part in EXCLUDED_DIR_NAMES for part in relative.parts[:-1]):
                    continue
                collected.add(candidate)
        elif path.suffix == ".py":
            collected.add(path)
    return sorted(collected)


def _audit(
    raw: Sequence[Violation],
    comments: dict[int, str],
    skip_file: bool,
    scope: FileScope,
    rules: Sequence[LintRule],
) -> list[Violation]:
    # Imported here: the registry's rule modules import this one.
    from repro.lint.rules import ALL_RULES

    selected = {rule.rule_id for rule in rules}
    registered = selected | {rule.rule_id for rule in ALL_RULES}
    fired_by_line: dict[int, set[str]] = {}
    for violation in raw:
        fired_by_line.setdefault(violation.line, set()).add(violation.rule_id)
    findings: list[Violation] = []

    def flag(lineno: int, match: re.Match[str], message: str) -> None:
        findings.append(
            Violation("PRAGMA", scope.posix, lineno, match.start() + 1, message)
        )

    for lineno, line in sorted(comments.items()):
        fired = fired_by_line.get(lineno, set())
        match = _PRAGMA_LINE.search(line)
        if match is not None:
            for token in match.group(1).split(","):
                rule_id = token.strip()
                if rule_id and rule_id not in registered:
                    flag(
                        lineno,
                        match,
                        f"`lint: skip={rule_id}` names no registered rule "
                        "(see --list-rules); drop it",
                    )
                elif rule_id in selected and rule_id not in fired:
                    flag(
                        lineno,
                        match,
                        f"stale `lint: skip={rule_id}`: {rule_id} no "
                        "longer fires on this line; drop the pragma",
                    )
        for keyword, rule_id, match in _reason_pragmas(line):
            _, does, why = _REASON_PRAGMAS[keyword]
            if rule_id not in selected:
                continue
            if match.group(1) is None:
                flag(
                    lineno,
                    match,
                    f"`pragma: {keyword}` without a reason does not "
                    f"suppress; state {why} (`# pragma: {keyword} <reason>`)",
                )
            elif rule_id not in fired:
                flag(
                    lineno,
                    match,
                    f"stale `pragma: {keyword}`: this line no longer "
                    f"{does}; drop the pragma",
                )
    if skip_file and not raw:
        message = (
            "stale `lint: skip-file`: no selected rule fires anywhere "
            "in this file; drop the pragma"
        )
        findings.append(Violation("PRAGMA", scope.posix, 1, 1, message))
    findings.sort(key=lambda v: (v.line, v.col))
    return findings


def lint_paths(
    paths: Iterable[str | Path], rules: Sequence[LintRule], audit: bool = False
) -> tuple[list[Violation], int]:
    """Lint (and with ``audit``, audit the pragmas of) every python file
    under ``paths``; returns the violations and the number of files
    checked."""
    files = collect_files(paths)
    violations: list[Violation] = []
    for path in files:
        violations.extend(lint_file(path, rules, audit))
    return violations, len(files)
