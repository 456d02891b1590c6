"""The layout guard: the "Layout" block of ``DESIGN.md`` names only
modules that exist, and names every package under ``src/repro`` and
every example script.

Under ``src/repro/`` an entry is a two-space-indented key — a package
(``core/``, ``lint/rules/``) followed by its comma-separated modules, or
a top-level ``*.py`` file followed by a description — and its deeper
indented lines continue it.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DESIGN = ROOT / "DESIGN.md"


def layout_block() -> list[str]:
    text = DESIGN.read_text(encoding="utf-8")
    section = text.split("\n## 4. Layout\n", 1)[1]
    return section.split("```\n", 2)[1].splitlines()


def layout() -> tuple[dict[str, str], dict[str, str]]:
    """``({key: text}, {key: text})`` for the top-level lines and the
    ``src/repro/`` entries, deeper-indented lines joined to the entry
    above them."""
    top: dict[str, str] = {}
    nested: dict[str, str] = {}
    entry = top, ""
    for line in layout_block():
        match = re.match(r"^( {0,2})(\S+)(.*)$", line)
        if match:
            entry = (nested if match.group(1) else top), match.group(2)
            entry[0][entry[1]] = match.group(3)
        else:
            entry[0][entry[1]] += " " + line.strip()
    return top, nested


def names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def test_every_named_module_exists():
    missing = []
    for key, text in layout()[1].items():
        if key.endswith(".py"):
            if not (SRC / key).is_file():
                missing.append(key)
            continue
        package = SRC / key.rstrip("/")
        if not (package / "__init__.py").is_file():
            missing.append(key)
        for name in names(text):
            if name.endswith("/"):
                found = (package / name / "__init__.py").is_file()
            else:
                found = (package / f"{name}.py").is_file()
            if not found:
                missing.append(f"{key}{name}")
    assert missing == []


def test_every_package_appears():
    listed = {key.rstrip("/") for key in layout()[1] if key.endswith("/")}
    packages = {
        init.parent.relative_to(SRC).as_posix()
        for init in SRC.rglob("__init__.py")
        if init.parent != SRC
    }
    assert sorted(packages - listed) == []


def test_every_example_appears():
    listed = set(names(layout()[0]["examples/"]))
    on_disk = {path.name for path in (ROOT / "examples").glob("*.py")}
    assert listed == on_disk
