"""Smoke tests: every example script and the CLI run to completion.

Examples are part of the public deliverable; a broken example is a
broken product, so they run as subprocesses exactly as a user would
run them: a fresh interpreter with ``PYTHONPATH=src``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.test_examples import run_example

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def run(args, timeout=240):
    return subprocess.run(
        args,
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_clean(script):
    result = run_example(script)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must narrate what they show"


def test_examples_cover_the_required_scenarios():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3


class TestCli:
    def test_overview(self):
        result = run([sys.executable, "-m", "repro"])
        assert result.returncode == 0
        assert "EDBT 1996" in result.stdout

    def test_single_experiment(self):
        result = run([sys.executable, "-m", "repro", "e3"])
        assert result.returncode == 0
        assert "E3" in result.stdout

    def test_fast_experiments(self):
        result = run([sys.executable, "-m", "repro", "experiments", "--fast"])
        assert result.returncode == 0
        for tag in ("E1", "E4b", "E8"):
            assert tag in result.stdout

    def test_unknown_command(self):
        result = run([sys.executable, "-m", "repro", "nonsense"])
        assert result.returncode == 2
        assert "unknown command" in result.stderr


class TestCsvExport:
    def test_export_writes_all_experiment_tables(self, tmp_path):
        from repro.experiments.run_all import export_csv

        files = export_csv(tmp_path, fast=True)
        assert len(files) == 11
        names = {f.name for f in files}
        assert "e1_identical_detection.csv" in names
        assert "e9_read_staleness.csv" in names
        content = (tmp_path / "e1_identical_detection.csv").read_text()
        header = content.splitlines()[0]
        assert header.startswith("protocol,")
        assert len(content.splitlines()) > 2

    def test_cli_csv_flag(self, tmp_path):
        result = run(
            [sys.executable, "-m", "repro", "experiments", "--csv",
             str(tmp_path / "out"), "--fast"],
            timeout=400,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert (tmp_path / "out" / "e8_traffic.csv").exists()
