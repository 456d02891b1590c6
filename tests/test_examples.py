"""Every script in ``examples/`` runs to completion.

Each script asserts its own story; this runs it in a fresh interpreter
with ``PYTHONPATH=src`` and requires exit status 0 and some output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must narrate what they show"
