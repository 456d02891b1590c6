"""The explored system: protocol nodes + network, driven by actions.

A :class:`ProtocolWorld` holds what one configuration of the cluster
simulator holds — protocol nodes, a :class:`~repro.cluster.network.
SimulatedNetwork`, budget counters — but with no RNG and no event loop:
the explorer picks the next action from :meth:`enabled_actions` and
applies it with :meth:`apply`.  Worlds are cloned (``copy.deepcopy``)
at every branch point of the search, so applying an action never
mutates the parent state.

The **state-hash contract** (docs/PROTOCOL.md section 11): two worlds
with equal :meth:`state_key` must be behaviourally identical — same
enabled actions, same successor states, same oracle verdicts.  The key
therefore covers every bit of state that can influence the protocol:
the per-node ``exploration_key()`` (full protocol state, not just the
``state_version()`` value digest — two replicas with equal values but
different logs behave differently), node liveness, and the remaining
budgets.  Measurement state (counters, conflict *histories* beyond the
count) is deliberately excluded.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baselines.per_item import PerItemVVNode
from repro.baselines.wuu_bernstein import WuuBernsteinNode
from repro.cluster.network import SimulatedNetwork
from repro.core.protocol import DBVVProtocolNode, DeltaProtocolNode
from repro.errors import ReplicationError
from repro.explore.actions import (
    Action,
    Crash,
    FetchOutOfBound,
    InapplicableActionError,
    Originate,
    Recover,
    SessionFault,
    StartSession,
)
from repro.interfaces import ProtocolNode
from repro.obs import OverheadCounters
from repro.substrate.operations import Append

__all__ = [
    "PROTOCOL_REGISTRY",
    "DifferentialWorld",
    "ExplorationConfig",
    "ProtocolSpec",
    "ProtocolWorld",
    "build_world",
]


@dataclass(frozen=True)
class ProtocolSpec:
    """One explorable protocol: how to build a node, and what the
    oracle may assume about it.

    ``causal_values`` — the protocol adopts by version-vector
    domination, so on conflict-free schedules its converged values
    must equal those of every other causal protocol driven through the
    same schedule (the differential oracle's cross-protocol check).
    LWW protocols (wuu-bernstein stamps by per-origin sequence number)
    converge among their own replicas but may legitimately settle on a
    different value, so they are only checked for self-convergence.
    ``supports_oob`` — exposes ``fetch_out_of_bound``.
    """

    name: str
    factory: Callable[[int, int, tuple[str, ...], OverheadCounters], ProtocolNode]
    causal_values: bool = True
    supports_oob: bool = False


PROTOCOL_REGISTRY: dict[str, ProtocolSpec] = {
    "dbvv": ProtocolSpec(
        "dbvv",
        lambda node_id, n, items, counters: DBVVProtocolNode(
            node_id, n, items, counters=counters
        ),
        causal_values=True,
        supports_oob=True,
    ),
    "dbvv-delta": ProtocolSpec(
        "dbvv-delta",
        lambda node_id, n, items, counters: DeltaProtocolNode(
            node_id, n, items, counters=counters
        ),
        causal_values=True,
        supports_oob=True,
    ),
    "per-item-vv": ProtocolSpec(
        "per-item-vv",
        lambda node_id, n, items, counters: PerItemVVNode(
            node_id, n, items, counters=counters
        ),
        causal_values=True,
    ),
    "wuu-bernstein": ProtocolSpec(
        "wuu-bernstein",
        lambda node_id, n, items, counters: WuuBernsteinNode(
            node_id, n, items, counters=counters
        ),
        causal_values=False,
    ),
}


def default_items(n_items: int) -> tuple[str, ...]:
    """The canonical item schema for explored configurations."""
    return tuple(f"x{i}" for i in range(n_items))


@dataclass(frozen=True)
class ExplorationConfig:
    """One bounded configuration of the explored state space.

    Budgets bound the alphabet, the depth bound lives in the engine:
    the same configuration can be explored to different depths and the
    trace format stores both.
    """

    protocol: str = "dbvv"
    n_nodes: int = 2
    items: tuple[str, ...] = ("x0", "x1")
    max_updates: int = 2
    max_faults: int = 1
    max_crashes: int = 1
    max_oob: int = 1
    fault_variants: bool = True
    differential: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in (self.protocol, *self.differential):
            if name not in PROTOCOL_REGISTRY:
                raise ValueError(
                    f"unknown protocol {name!r}; known: "
                    f"{', '.join(sorted(PROTOCOL_REGISTRY))}"
                )
        if self.n_nodes < 2:
            raise ValueError("exploration needs at least 2 nodes")
        if not self.items:
            raise ValueError("exploration needs at least 1 item")

    def to_json(self) -> dict[str, object]:
        return {
            "protocol": self.protocol,
            "n_nodes": self.n_nodes,
            "items": list(self.items),
            "max_updates": self.max_updates,
            "max_faults": self.max_faults,
            "max_crashes": self.max_crashes,
            "max_oob": self.max_oob,
            "fault_variants": self.fault_variants,
            "differential": list(self.differential),
        }

    @classmethod
    def from_json(cls, data: dict[str, object]) -> "ExplorationConfig":
        return cls(
            protocol=str(data.get("protocol", "dbvv")),
            n_nodes=int(data.get("n_nodes", 2)),  # type: ignore[arg-type]
            items=tuple(str(i) for i in data.get("items", ())),  # type: ignore[union-attr]
            max_updates=int(data.get("max_updates", 2)),  # type: ignore[arg-type]
            max_faults=int(data.get("max_faults", 1)),  # type: ignore[arg-type]
            max_crashes=int(data.get("max_crashes", 1)),  # type: ignore[arg-type]
            max_oob=int(data.get("max_oob", 1)),  # type: ignore[arg-type]
            fault_variants=bool(data.get("fault_variants", True)),
            differential=tuple(
                str(p) for p in data.get("differential", ())  # type: ignore[union-attr]
            ),
        )


def _update_op(node: int) -> Append:
    """The deterministic operation an :class:`Originate` action applies:
    append one tag byte identifying the originating node, so final
    values spell out the adoption order a schedule produced."""
    return Append(bytes([0x41 + (node % 26)]))


class ProtocolWorld:
    """One protocol's replicas under explorer control."""

    def __init__(self, config: ExplorationConfig, protocol: str | None = None):
        self.config = config
        self.protocol = protocol if protocol is not None else config.protocol
        self.spec = PROTOCOL_REGISTRY[self.protocol]
        self.counters = OverheadCounters()
        self.network = SimulatedNetwork(
            config.n_nodes, config.items, counters=self.counters
        )
        self.nodes: list[ProtocolNode] = [
            self.spec.factory(node_id, config.n_nodes, config.items, self.counters)
            for node_id in range(config.n_nodes)
        ]
        self.budgets_used = {"updates": 0, "faults": 0, "crashes": 0, "oob": 0}
        #: Faults that were armed but never fired (the session ended
        #: before the trigger message); tracked for reporting honesty.
        self.faults_unfired = 0

    # -- cloning ---------------------------------------------------------------

    def clone(self) -> "ProtocolWorld":
        return copy.deepcopy(self)

    def __deepcopy__(self, memo: dict[int, object]) -> "ProtocolWorld":
        cloned = object.__new__(type(self))
        memo[id(self)] = cloned
        for name, value in self.__dict__.items():
            if name in ("config", "spec"):
                setattr(cloned, name, value)  # frozen, shareable
            else:
                setattr(cloned, name, copy.deepcopy(value, memo))
        return cloned

    # -- budgets ---------------------------------------------------------------

    def budget_left(self, kind: str | None) -> int:
        if kind is None:
            return 1 << 30
        limits = {
            "updates": self.config.max_updates,
            "faults": self.config.max_faults,
            "crashes": self.config.max_crashes,
            "oob": self.config.max_oob,
        }
        return limits[kind] - self.budgets_used[kind]

    def budgets_left(self) -> dict[str, int]:
        return {
            kind: self.budget_left(kind)
            for kind in ("updates", "faults", "crashes", "oob")
        }

    # -- the action alphabet ---------------------------------------------------

    def _session_faults(self) -> list[SessionFault]:
        """The mid-session fault variants explored per ordered pair."""
        return [
            SessionFault("drop", 1),
            SessionFault("drop", 2),
        ]

    def enabled_actions(self) -> list[Action]:
        """All actions enabled in this state, in deterministic order."""
        up = [k for k in range(self.config.n_nodes) if self.network.is_up(k)]
        down = [k for k in range(self.config.n_nodes) if not self.network.is_up(k)]
        actions: list[Action] = []
        if self.budget_left("updates") > 0:
            for node in up:
                for item in self.config.items:
                    actions.append(Originate(node, item))
        pairs = [
            (i, j)
            for i in up
            for j in up
            if i != j and self.network.can_reach(i, j)
        ]
        for i, j in pairs:
            actions.append(StartSession(i, j))
        if self.config.fault_variants and self.budget_left("faults") > 0:
            for i, j in pairs:
                for fault in self._session_faults():
                    actions.append(StartSession(i, j, fault))
                actions.append(StartSession(i, j, SessionFault("crash", 1, i)))
                actions.append(StartSession(i, j, SessionFault("crash", 1, j)))
        if self.spec.supports_oob and self.budget_left("oob") > 0:
            for i, j in pairs:
                for item in self.config.items:
                    actions.append(FetchOutOfBound(i, item, j))
        if self.budget_left("crashes") > 0:
            for node in up:
                actions.append(Crash(node))
        for node in down:
            actions.append(Recover(node))
        return actions

    # -- applying actions ------------------------------------------------------

    def apply(self, action: Action) -> None:
        """Execute ``action``; raises :class:`InapplicableActionError`
        when the action is not enabled in this state (replays of stale
        or over-shrunk traces must fail loudly, not silently skip)."""
        if isinstance(action, Originate):
            self._require_up(action.node)
            self._spend(action.budget)
            self.nodes[action.node].user_update(action.item, _update_op(action.node))
        elif isinstance(action, StartSession):
            self._require_up(action.initiator)
            self._require_up(action.responder)
            if action.fault is not None:
                self._spend("faults")
                if action.fault.kind == "drop":
                    self.network.arm_message_drop(action.fault.after)
                else:
                    self.network.arm_mid_session_crash(
                        action.fault.target, action.fault.after
                    )
            self.nodes[action.initiator].sync_with(
                self.nodes[action.responder], self.network
            )
            if self.network.armed_fault_count():
                # The session finished before the fault's trigger
                # message; a one-shot fault must not leak into a later
                # session, so clear it and record the dud.
                self.faults_unfired += self.network.clear_armed_faults()
        elif isinstance(action, Crash):
            self._require_up(action.node)
            self._spend(action.budget)
            self.network.set_down(action.node)
        elif isinstance(action, Recover):
            if self.network.is_up(action.node):
                raise InapplicableActionError(
                    f"recover of node {action.node} which is already up"
                )
            self.network.set_up(action.node)
        elif isinstance(action, FetchOutOfBound):
            self._require_up(action.node)
            self._require_up(action.peer)
            self._spend(action.budget)
            node = self.nodes[action.node]
            peer = self.nodes[action.peer]
            if not isinstance(node, DBVVProtocolNode) or not isinstance(
                peer, DBVVProtocolNode
            ):
                raise InapplicableActionError(
                    f"{self.protocol} does not support out-of-bound fetches"
                )
            node.fetch_out_of_bound(action.item, peer, self.network)
        else:
            raise InapplicableActionError(f"unknown action {action!r}")

    def _require_up(self, node: int) -> None:
        if not self.network.is_up(node):
            raise InapplicableActionError(
                f"action requires node {node} up, but it is down"
            )

    def _spend(self, kind: str | None) -> None:
        if kind is None:
            return
        if self.budget_left(kind) <= 0:
            raise InapplicableActionError(f"{kind} budget exhausted")
        self.budgets_used[kind] += 1

    # -- state hashing ---------------------------------------------------------

    def protocol_key(self) -> bytes:
        """Digest of protocol state + liveness, budgets excluded — the
        closure-oracle memo key (remaining budgets cannot change what a
        quiescent suffix of fault-free sessions converges to)."""
        h = hashlib.blake2b(digest_size=16)
        h.update(self.protocol.encode())
        h.update(bytes(int(self.network.is_up(k)) for k in range(self.config.n_nodes)))
        for node in self.nodes:
            key = node.exploration_key()
            if key is None:
                raise ReplicationError(
                    f"{type(node).__name__} does not implement "
                    "exploration_key(); the explorer cannot hash its state"
                )
            h.update(repr(key).encode())
            h.update(b"\x00")
        return h.digest()

    def state_key(self) -> bytes:
        """Digest of the complete exploration state (see the module
        docstring for the contract)."""
        h = hashlib.blake2b(digest_size=16)
        h.update(self.protocol_key())
        h.update(
            repr(tuple(sorted(self.budgets_used.items()))).encode()
        )
        return h.digest()

    # -- introspection ---------------------------------------------------------

    def total_conflicts(self) -> int:
        return sum(node.conflict_count() for node in self.nodes)

    def describe(self) -> str:
        return (
            f"{self.protocol} n={self.config.n_nodes} "
            f"items={len(self.config.items)}"
        )


class DifferentialWorld:
    """Several protocols driven in lockstep through one schedule.

    The action alphabet is the intersection of what every member
    supports (out-of-bound fetches are DBVV-specific and therefore
    excluded); liveness stays identical across members because crash
    and recover actions apply to every member's network.  The oracle
    checks each member on its own *and* — for the causal members —
    that quiescent closures agree on final values.
    """

    def __init__(self, config: ExplorationConfig):
        if not config.differential:
            raise ValueError("DifferentialWorld needs config.differential")
        self.config = config
        names = (config.protocol, *config.differential)
        self.worlds = [ProtocolWorld(config, name) for name in names]

    @property
    def lead(self) -> ProtocolWorld:
        return self.worlds[0]

    def clone(self) -> "DifferentialWorld":
        return copy.deepcopy(self)

    def budgets_left(self) -> dict[str, int]:
        return self.lead.budgets_left()

    def enabled_actions(self) -> list[Action]:
        enabled = self.lead.enabled_actions()
        return [a for a in enabled if not isinstance(a, FetchOutOfBound)]

    def apply(self, action: Action) -> None:
        for world in self.worlds:
            world.apply(action)

    def state_key(self) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        for world in self.worlds:
            h.update(world.state_key())
        return h.digest()

    def protocol_key(self) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        for world in self.worlds:
            h.update(world.protocol_key())
        return h.digest()

    def describe(self) -> str:
        return " vs ".join(world.protocol for world in self.worlds)


def build_world(config: ExplorationConfig) -> ProtocolWorld | DifferentialWorld:
    """The world for ``config``: differential when extra protocols are
    configured, single-protocol otherwise."""
    if config.differential:
        return DifferentialWorld(config)
    return ProtocolWorld(config)


def ordered_pairs(n_nodes: int) -> Sequence[tuple[int, int]]:
    """All ordered node pairs, the closure-round session schedule."""
    return [(i, j) for i in range(n_nodes) for j in range(n_nodes) if i != j]
