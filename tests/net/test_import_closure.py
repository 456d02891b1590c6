"""A node process loads the protocol, not the repo; the repo loads
the standard library alone.

``python -m repro.net`` must import only the layers below it (see
"Layers" in ``docs/DEVELOPING.md``): no simulator, no baselines — and
its frame registry holds the core protocol's type ids and nothing
else.  No ``repro`` module imports a third-party package.  Each check
runs in a fresh interpreter so pytest's own imports cannot mask a
regression.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

FORBIDDEN = (
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


def test_every_module_imports_with_the_standard_library_alone():
    """A finder refuses every top-level name outside the standard
    library and ``repro``; then every ``repro`` module is imported, and
    no module the interpreter had not loaded at startup may appear
    outside those two."""
    out = _run(
        "import importlib, json, pkgutil, sys\n"
        "allowed = set(sys.stdlib_module_names) | {'repro'}\n"
        "class RefuseThirdParty:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] not in allowed:\n"
        "            raise ModuleNotFoundError(f'{name} is not in the standard library')\n"
        "sys.meta_path.insert(0, RefuseThirdParty())\n"
        "at_startup = set(sys.modules)\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "foreign = sorted(m for m in set(sys.modules) - at_startup\n"
        "                 if m.partition('.')[0] not in allowed)\n"
        "print(json.dumps([names, foreign]))\n"
    )
    names, foreign = json.loads(out)
    assert foreign == []
    assert {"repro.analysis.verdicts", "repro.cluster.topologies",
            "repro.net.__main__", "repro.lint.__main__"} <= set(names)
