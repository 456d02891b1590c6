"""``python -m benchmarks.net`` — see ``cli.py`` and ``README.md``."""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
if not (_SRC / "repro" / "net").is_dir():
    sys.exit(f"benchmarks.net: {_SRC}/repro/net is missing — run from a checkout of the repo")

from benchmarks.net.cli import main  # noqa: E402

sys.exit(main())
