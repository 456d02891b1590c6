"""Smoke tests: the examples cover the required scenarios and the CLI
runs to completion, as a subprocess exactly as a user would run it: a
fresh interpreter with ``PYTHONPATH=src``.  Each example's own run is
``tests/test_examples.py::test_example_runs``.
"""

import os
import subprocess
import sys
from pathlib import Path

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
