"""The knob guard: every setting of the audited owners has a row in the
knobs table of ``docs/DEVELOPING.md`` that names its caller, and every
row names a setting that still exists.

A settable value is a dataclass field with a default, a constructor
parameter with a default, or a command-line option string.  A new knob
without a row fails here, and so does a row left behind by a deleted
knob.
"""

import argparse
import dataclasses
import inspect
from pathlib import Path

import repro.explore.__main__ as explore_cli
import repro.net.__main__ as net_cli
from repro.baselines.agrawal_malpani import AgrawalMalpaniNode
from repro.baselines.lotus import LotusNode
from repro.baselines.oracle import OraclePushNode
from repro.baselines.per_item import PerItemVVNode
from repro.baselines.wuu_bernstein import WuuBernsteinNode
from repro.cluster.event_sim import EventDrivenSimulation
from repro.cluster.network import SimulatedNetwork
from repro.cluster.simulation import ClusterSimulation
from repro.core.delta import DeltaEpidemicNode
from repro.core.node import EpidemicNode
from repro.core.protocol import DBVVProtocolNode
from repro.durable.journal import NodeJournal
from repro.explore.engine import Explorer
from repro.explore.world import ExplorationConfig
from repro.net.config import NodeConfig
from repro.wire.codec import WireCodec

DEVELOPING = Path(__file__).resolve().parent.parent / "docs" / "DEVELOPING.md"

CLASSES = (
    ClusterSimulation,
    EventDrivenSimulation,
    SimulatedNetwork,
    NodeConfig,
    NodeJournal,
    WireCodec,
    EpidemicNode,
    DeltaEpidemicNode,
    DBVVProtocolNode,
    AgrawalMalpaniNode,
    LotusNode,
    OraclePushNode,
    PerItemVVNode,
    WuuBernsteinNode,
    Explorer,
    ExplorationConfig,
)

PARSERS = {
    "python -m repro.net": net_cli._build_parser,
    "python -m repro.explore": explore_cli._build_parser,
}


def settable(owner: type) -> set[str]:
    if dataclasses.is_dataclass(owner):
        return {
            f.name
            for f in dataclasses.fields(owner)
            if f.init
            and (
                f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING
            )
        }
    parameters = inspect.signature(owner.__init__).parameters.values()
    return {p.name for p in parameters if p.default is not inspect.Parameter.empty}


def options(parser: argparse.ArgumentParser) -> set[str]:
    return {
        option
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }


def code_knobs() -> set[tuple[str, str]]:
    knobs = {(cls.__name__, name) for cls in CLASSES for name in settable(cls)}
    for label, build in PARSERS.items():
        knobs |= {(label, option) for option in options(build())}
    return knobs


def table_rows() -> list[tuple[str, str, str]]:
    """``(owner, setting, needed by)`` for every row of the knobs table."""
    text = DEVELOPING.read_text(encoding="utf-8")
    section = text.split("\n## Knobs\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        owner, setting, needed_by = (
            cell.strip() for cell in line.strip("|").split("|", 2)
        )
        rows.append((owner.strip("`"), setting.strip("`"), needed_by))
    return rows


def test_table_rows_are_unique():
    keys = [(owner, setting) for owner, setting, _ in table_rows()]
    assert len(keys) == len(set(keys))


def test_every_row_names_a_caller():
    assert [row for row in table_rows() if not row[2]] == []


def test_every_knob_has_a_row():
    documented = {(owner, setting) for owner, setting, _ in table_rows()}
    assert sorted(code_knobs() - documented) == []


def test_every_row_is_a_knob():
    documented = {(owner, setting) for owner, setting, _ in table_rows()}
    assert sorted(documented - code_knobs()) == []
