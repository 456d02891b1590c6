"""A node process loads the protocol, not the repo.

``python -m repro.net`` must import only the layers below it (see
"Layers" in ``docs/DEVELOPING.md``): no simulator, no baselines, no
third-party package — and its frame registry holds the core protocol's
type ids and nothing else.  Each check runs in a fresh interpreter so
pytest's own imports cannot mask a regression.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

FORBIDDEN = (
    "networkx", "numpy", "scipy",
    "repro.cluster", "repro.metrics", "repro.baselines", "repro.experiments",
    "repro.explore", "repro.lint", "repro.analysis", "repro.workload",
    "repro.net.harness",
)


def _run(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": SRC},
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    ).stdout


def test_node_entry_point_closure():
    loaded, type_ids = json.loads(
        _run(
            "import json, sys\n"
            "import repro.net.__main__\n"
            "from repro.wire import registered_codecs\n"
            "print(json.dumps([sorted(sys.modules),"
            " [c.type_id for c in registered_codecs()]]))\n"
        )
    )
    leaked = [
        name
        for name in loaded
        if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)
    ]
    assert leaked == []
    assert len([m for m in loaded if m.split(".")[0] == "repro"]) <= 35
    assert type_ids == [1, 2, 3, 5, 6, 7, 8, 9]  # 4 is retired (the v1 reply)


def test_protocol_packages_import_without_networkx():
    """Only the simulator needs the graph library: the protocol, the
    node, the linter and (for R8) the baselines import without it."""
    out = _run(
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro, repro.net, repro.lint, repro.baselines\n"
        "print('ok')\n"
    )
    assert out.strip() == "ok"
