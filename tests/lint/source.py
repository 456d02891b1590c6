"""Lint a source text as if it lived at a repository path.

The rule tests lint snippets under virtual paths (the path decides the
file's scope) without writing them to disk; these two probes run the
engine's one parse-and-check pass and return one half of its answer.
"""

from repro.lint.engine import _check, make_scope


def lint_source(source, path, rules):
    """The findings no pragma suppresses."""
    return _check(source, make_scope(path), rules)[0]


def audit_pragmas(source, path, rules):
    """The stale-pragma findings (pseudo rule id ``PRAGMA``)."""
    return _check(source, make_scope(path), rules)[1]
