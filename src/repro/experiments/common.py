"""Shared experiment machinery.

Every experiment (E1–E9, see DESIGN.md section 3) follows the same
pattern: build clusters for the protocols under comparison, drive an
identical workload into each, and report deterministic work counters
(plus traffic) as a table.  This module holds the pieces they share:
protocol registry, cluster construction, convergence helpers, and the
no-surprises rule that every numeric result is a pure function of the
experiment's parameters and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baselines.agrawal_malpani import AgrawalMalpaniNode
from repro.baselines.lotus import LotusNode
from repro.baselines.oracle import OraclePushNode
from repro.baselines.per_item import PerItemVVNode
from repro.baselines.wuu_bernstein import WuuBernsteinNode
from repro.cluster.network import SimulatedNetwork
from repro.core.protocol import DBVVProtocolNode, DeltaProtocolNode
from repro.interfaces import ProtocolNode
from repro.obs import OverheadCounters

__all__ = [
    "PROTOCOLS",
    "EPIDEMIC_PROTOCOLS",
    "protocol_class",
    "make_factory",
    "make_items",
    "fresh_pair",
]

#: name -> ProtocolNode subclass, in canonical table order.
PROTOCOLS: dict[str, type[ProtocolNode]] = {
    DBVVProtocolNode.protocol_name: DBVVProtocolNode,
    DeltaProtocolNode.protocol_name: DeltaProtocolNode,
    PerItemVVNode.protocol_name: PerItemVVNode,
    LotusNode.protocol_name: LotusNode,
    OraclePushNode.protocol_name: OraclePushNode,
    WuuBernsteinNode.protocol_name: WuuBernsteinNode,
    AgrawalMalpaniNode.protocol_name: AgrawalMalpaniNode,
}

#: The pull-style epidemic protocols (Oracle push is structurally
#: different and only participates in the experiments built for it).
EPIDEMIC_PROTOCOLS = ("dbvv", "per-item-vv", "lotus", "wuu-bernstein")


def protocol_class(name: str) -> type[ProtocolNode]:
    """Resolve a protocol's class by its table name."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}"
        ) from None


def make_items(n_items: int, prefix: str = "item") -> list[str]:
    """Zero-padded item names, stable across experiment sweeps."""
    width = max(5, len(str(max(n_items - 1, 0))))
    return [f"{prefix}-{k:0{width}d}" for k in range(n_items)]


def make_factory(
    name: str, n_nodes: int, items: Sequence[str]
) -> Callable[[int, OverheadCounters], ProtocolNode]:
    """A :class:`~repro.cluster.simulation.ClusterSimulation` factory for
    the named protocol."""
    cls = protocol_class(name)

    def factory(node_id: int, counters: OverheadCounters) -> ProtocolNode:
        return cls(node_id, n_nodes, list(items), counters=counters)  # type: ignore[call-arg]

    return factory


@dataclass
class NodePair:
    """Two directly connected protocol nodes with per-node counters —
    the minimal setup for per-session cost measurements."""

    recipient: ProtocolNode
    source: ProtocolNode
    recipient_counters: OverheadCounters
    source_counters: OverheadCounters
    transport_counters: OverheadCounters
    transport: SimulatedNetwork

    def sync(self):
        """One recipient-pulls-from-source session."""
        return self.recipient.sync_with(self.source, self.transport)

    def session_work(self) -> int:
        """Comparison/scan work both endpoints did (see
        :meth:`~repro.obs.OverheadCounters.total_work`)."""
        return (
            self.recipient_counters.total_work()
            + self.source_counters.total_work()
        )

    def reset(self) -> None:
        self.recipient_counters.reset()
        self.source_counters.reset()
        self.transport_counters.reset()


def fresh_pair(name: str, items: Sequence[str], n_nodes: int = 2) -> NodePair:
    """A recipient/source pair of the named protocol (ids 0 and 1)."""
    cls = protocol_class(name)
    rc, sc, tc = OverheadCounters(), OverheadCounters(), OverheadCounters()
    recipient = cls(0, n_nodes, list(items), counters=rc)  # type: ignore[call-arg]
    source = cls(1, n_nodes, list(items), counters=sc)  # type: ignore[call-arg]
    return NodePair(
        recipient, source, rc, sc, tc, SimulatedNetwork(n_nodes, counters=tc)
    )
