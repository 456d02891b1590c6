"""Engine behavior: scoping, suppression pragmas, file discovery, CLI."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, LintRule, make_scope
from repro.lint.engine import collect_files
from tests.lint.source import audit_pragmas, lint_source
from repro.lint.rules import rules_by_id

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
CATALOGUE = "\n### What each rule catches\n"

BARE_ASSERT = "def f(x):\n    assert x > 0\n"


def catalogue_rows():
    """``(id, name, what it caught)`` for every row of the table of
    what each rule catches in ``docs/DEVELOPING.md``."""
    text = (REPO_ROOT / "docs" / "DEVELOPING.md").read_text(encoding="utf-8")
    section = text.split(CATALOGUE, 1)[1].split("\n#", 1)[0]
    return [
        tuple(cell.strip() for cell in line.strip().strip("|").split("|"))
        for line in section.splitlines()
        if line.startswith("| R")
    ]


class TestScoping:
    def test_src_file_classifies_into_package(self):
        scope = make_scope("src/repro/core/node.py")
        assert scope.in_src
        assert scope.package == ("repro", "core", "node.py")
        assert scope.in_subpackage("core")
        assert not scope.in_subpackage("cluster")

    def test_test_file_is_outside_package(self):
        scope = make_scope("tests/core/test_node.py")
        assert not scope.in_src
        assert scope.package is None

    def test_last_src_repro_marker_wins(self):
        scope = make_scope("tests/lint/fixtures/src/repro/core/r1_violation.py")
        assert scope.in_subpackage("core")

    def test_absolute_paths_classify_too(self):
        scope = make_scope("/root/repo/src/repro/cluster/network.py")
        assert scope.in_subpackage("cluster")


class TestPragmas:
    def test_line_pragma_suppresses_named_rule(self):
        source = "def f(x):\n    assert x > 0  # lint: skip=R1\n"
        assert lint_source(source, "src/repro/core/m.py", ALL_RULES) == []

    def test_line_pragma_with_wrong_rule_does_not_suppress(self):
        source = "def f(x):\n    assert x > 0  # lint: skip=R3\n"
        findings = lint_source(source, "src/repro/core/m.py", ALL_RULES)
        assert any(v.rule_id == "R1" for v in findings)

    def test_line_pragma_suppresses_comma_separated_rules(self):
        source = "def f(n):\n    n.dbvv.increment(0)  # lint: skip=R4, R3\n"
        assert lint_source(source, "src/repro/experiments/e.py", ALL_RULES) == []

    def test_skip_file_pragma_suppresses_everything(self):
        source = "# lint: skip-file\n" + BARE_ASSERT
        assert lint_source(source, "src/repro/core/m.py", ALL_RULES) == []

    def test_skip_file_pragma_only_honoured_in_header(self):
        source = BARE_ASSERT + "\n\n\n\n\n# lint: skip-file\n"
        findings = lint_source(source, "src/repro/core/m.py", ALL_RULES)
        assert any(v.rule_id == "R1" for v in findings)


FULL_SCAN_LOOP = (
    "def sync_with(self, peer, transport):\n"
    "    for name in self._values:{comment}\n"
    "        pass\n"
)


class TestFullScanPragma:
    def test_reasoned_pragma_suppresses_r7(self):
        source = FULL_SCAN_LOOP.format(
            comment="  # pragma: full-scan inherent to this baseline"
        )
        assert lint_source(source, "src/repro/baselines/b.py", ALL_RULES) == []

    def test_bare_pragma_does_not_suppress(self):
        source = FULL_SCAN_LOOP.format(comment="  # pragma: full-scan")
        findings = lint_source(source, "src/repro/baselines/b.py", ALL_RULES)
        assert any(v.rule_id == "R7" for v in findings)


class TestPragmaAudit:
    def test_live_pragmas_pass_the_audit(self):
        source = FULL_SCAN_LOOP.format(
            comment="  # pragma: full-scan inherent to this baseline"
        )
        assert audit_pragmas(source, "src/repro/baselines/b.py", ALL_RULES) == []

    def test_stale_skip_pragma_is_flagged(self):
        source = "def f(x):\n    return x  # lint: skip=R1\n"
        findings = audit_pragmas(source, "src/repro/core/m.py", ALL_RULES)
        assert any("stale" in v.message for v in findings)
        assert all(v.rule_id == "PRAGMA" for v in findings)

    def test_stale_full_scan_pragma_is_flagged(self):
        source = (
            "def sync_with(self, message):\n"
            "    for record in message.records:  # pragma: full-scan old reason\n"
            "        pass\n"
        )
        findings = audit_pragmas(source, "src/repro/baselines/b.py", ALL_RULES)
        assert any("stale" in v.message for v in findings)

    def test_bare_full_scan_pragma_is_flagged(self):
        source = FULL_SCAN_LOOP.format(comment="  # pragma: full-scan")
        findings = audit_pragmas(source, "src/repro/baselines/b.py", ALL_RULES)
        assert any("without a reason" in v.message for v in findings)

    def test_stale_skip_file_pragma_is_flagged(self):
        source = "# lint: skip-file\ndef f(x):\n    return x\n"
        findings = audit_pragmas(source, "src/repro/core/m.py", ALL_RULES)
        assert any("skip-file" in v.message for v in findings)

    def test_pragma_text_inside_strings_is_ignored(self):
        source = 'DOC = "use # pragma: full-scan <reason> to annotate"\n'
        assert audit_pragmas(source, "src/repro/core/m.py", ALL_RULES) == []

    def test_unselected_rules_are_not_judged(self):
        source = "def f(x):\n    return x  # lint: skip=R1\n"
        rules = rules_by_id("R3")
        assert audit_pragmas(source, "src/repro/core/m.py", rules) == []

    @pytest.mark.parametrize("rule_id", ["R42", "R6", "R8"])
    def test_skip_naming_no_registered_rule_is_flagged(self, rule_id):
        # An unknown id (a typo, or a retired rule) suppresses nothing,
        # whichever rules are selected.
        source = f"x = 1  # lint: skip={rule_id}\n"
        for rules in (ALL_RULES, rules_by_id("R3")):
            findings = audit_pragmas(source, "src/repro/core/m.py", rules)
            assert [v.rule_id for v in findings] == ["PRAGMA"]
            assert "no registered rule" in findings[0].message


class TestParseFailures:
    def test_unparseable_file_reports_parse_violation(self):
        findings = lint_source("def f(:\n", "src/repro/core/broken.py", ALL_RULES)
        assert len(findings) == 1
        assert findings[0].rule_id == "PARSE"


class TestFileDiscovery:
    def test_fixture_directories_are_skipped_in_walks(self):
        files = collect_files([REPO_ROOT / "tests" / "lint"])
        assert not any("fixtures" in f.parts for f in files)

    def test_explicitly_named_fixture_file_is_still_collected(self):
        target = FIXTURES / "src" / "repro" / "core" / "r1_violation.py"
        assert target in collect_files([target])

    def test_non_python_files_are_ignored(self):
        assert collect_files([FIXTURES / "README.md"]) == []


class TestRegistry:
    def test_rules_registered_in_order_without_retired_ids(self):
        retired = {6, 8}
        assert [r.rule_id for r in ALL_RULES] == [
            f"R{i}" for i in range(1, 17) if i not in retired
        ]

    def test_rule_ids_are_unique_and_documented(self):
        ids = [r.rule_id for r in ALL_RULES]
        assert len(ids) == len(set(ids))
        for rule in ALL_RULES:
            assert rule.summary, rule.rule_id
            assert rule.name != "abstract", rule.rule_id

    def test_rules_by_id_selects_subset(self):
        assert [r.rule_id for r in rules_by_id("R3", "R1")] == ["R1", "R3"]

    def test_rules_by_id_rejects_unknown(self):
        try:
            rules_by_id("R99")
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError")


class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_violating_file_exits_nonzero_and_reports(self):
        target = "tests/lint/fixtures/src/repro/core/r1_violation.py"
        result = self._run(target)
        assert result.returncode == 1
        assert "R1" in result.stdout

    def test_clean_file_exits_zero(self):
        result = self._run("tests/lint/fixtures/src/repro/core/r1_clean.py")
        assert result.returncode == 0

    def test_list_rules(self):
        result = self._run("--list-rules")
        assert result.returncode == 0
        listed = [line.split()[0] for line in result.stdout.splitlines()]
        assert listed == [rule.rule_id for rule in ALL_RULES]

    def test_catalogue_table_matches_list_rules(self):
        """Every rule names the defect it caught or the invariant no
        test checks, in one row of the catalogue table, in registry
        order; a row whose rule is gone fails too."""
        result = self._run("--list-rules")
        listed = [tuple(line.split()[:2]) for line in result.stdout.splitlines()]
        rows = catalogue_rows()
        assert [(rule_id, name) for rule_id, name, _ in rows] == listed
        unnamed = [
            rule_id
            for rule_id, _, caught in rows
            if not caught.startswith(("Caught in `", "No test"))
        ]
        assert unnamed == []

    def test_select_limits_rules(self):
        target = "tests/lint/fixtures/src/repro/core/r1_violation.py"
        result = self._run("--select", "R5", target)
        assert result.returncode == 0  # R1 violation invisible to R5

    def test_no_paths_is_a_usage_error(self):
        assert self._run().returncode == 2

    @pytest.mark.parametrize("missing", ["tests/nosuch", "tests/nosuch.py"])
    def test_missing_path_is_a_usage_error(self, missing):
        result = self._run("src/repro/lint", missing)
        assert result.returncode == 2
        assert f"no such file or directory: {missing}" in result.stderr

    def test_summary_counts_per_rule(self):
        target = "tests/lint/fixtures/src/repro/cluster/r3_violation.py"
        result = self._run(target)
        assert result.returncode == 1
        assert "R3:" in result.stderr

    def test_stale_pragma_fails_the_run(self, tmp_path):
        target = tmp_path / "stale.py"
        target.write_text("def f(x):\n    return x  # lint: skip=R1\n")
        result = self._run(str(target))
        assert result.returncode == 1
        assert "PRAGMA" in result.stdout

    def test_no_audit_skips_the_pragma_pass(self, tmp_path):
        target = tmp_path / "stale.py"
        target.write_text("def f(x):\n    return x  # lint: skip=R1\n")
        result = self._run("--no-audit", str(target))
        assert result.returncode == 0


class _CountingRule(LintRule):
    rule_id = "R1"
    name = "counting"
    summary = "counts the files it checks"

    def __init__(self):
        self.checked = []

    def check(self, tree, scope):
        self.checked.append(scope.filename)
        return iter(())


class TestOnePass:
    def test_each_rule_checks_each_file_once(self, tmp_path, monkeypatch):
        """Lint and the pragma audit share one parse and one rule run."""
        import repro.lint.__main__ as cli

        rule = _CountingRule()
        monkeypatch.setattr(cli, "ALL_RULES", (rule,))
        for name in ("a.py", "b.py"):
            (tmp_path / name).write_text("x = 1  # lint: skip=R1\n")
        assert cli.main([str(tmp_path)]) == 1  # two stale pragmas
        assert sorted(rule.checked) == ["a.py", "b.py"]
