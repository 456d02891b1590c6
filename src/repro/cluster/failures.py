"""Failure injection.

The failure model matches the paper's discussion (section 8.2):
fail-stop server crashes with eventual repair — a crashed server loses
no durable state, it simply stops participating until recovery.  The
injector drives a :class:`~repro.cluster.network.SimulatedNetwork`
(so in-flight sessions abort) and notifies an optional listener (the
cluster simulation uses this to skip crashed nodes when scheduling).

Plans are declarative so experiments read as data::

    plan = FailurePlan([
        Crash(node=0, at_round=3),
        CrashMidSession(node=2, at_round=5, after_messages=1),
        LossyWindow(rate=0.4, at_round=8, until_round=12, seed=99),
        Recover(node=0, at_round=20),
    ])

Two granularities coexist:

* **round-level events** (:class:`Crash`, :class:`Recover`,
  :class:`PartitionEvent`, :class:`HealEvent`) change the network state
  at the *start* of their round, before any session runs;
* **mid-session events** arm the network's scripted fault machinery at
  the start of their round and fire *inside* a session later that round:
  :class:`CrashMidSession` kills a node between two messages of the
  first session it participates in (the failure window E5's
  interrupted-session arm stresses — the session is half done, one
  endpoint has already processed state), and :class:`LossyWindow` raises
  the per-message drop probability for a span of rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster.network import SimulatedNetwork

__all__ = [
    "Crash",
    "Recover",
    "PartitionEvent",
    "HealEvent",
    "CrashMidSession",
    "LossyWindow",
    "FailurePlan",
]


@dataclass(frozen=True)
class Crash:
    """Take ``node`` down at the start of ``at_round``."""

    node: int
    at_round: int


@dataclass(frozen=True)
class Recover:
    """Bring ``node`` back at the start of ``at_round``."""

    node: int
    at_round: int


@dataclass(frozen=True)
class PartitionEvent:
    """Split the network into ``groups`` at the start of ``at_round``."""

    groups: tuple[tuple[int, ...], ...]
    at_round: int


@dataclass(frozen=True)
class HealEvent:
    """Remove all partitions at the start of ``at_round``."""

    at_round: int


@dataclass(frozen=True)
class CrashMidSession:
    """Crash ``node`` *between two messages* of a session during
    ``at_round``: armed at the start of the round, it fires once the
    first session involving ``node`` has moved ``after_messages``
    messages, so that session's next message finds the node dead.
    The node stays down until an explicit :class:`Recover`.
    """

    node: int
    at_round: int
    after_messages: int = 1

    def __post_init__(self) -> None:
        if self.after_messages < 1:
            raise ValueError(
                f"after_messages must be >= 1, got {self.after_messages}"
            )


@dataclass(frozen=True)
class LossyWindow:
    """Raise the network's drop probability to ``rate`` for the rounds
    ``at_round .. until_round - 1``; at ``until_round`` the still-open
    window that opened last is active again (none: no loss).  The
    window draws its drops from its own RNG seeded with ``seed``, so
    they are the same whatever windows ran before it.
    """

    rate: float
    at_round: int
    until_round: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {self.rate}")
        if self.until_round <= self.at_round:
            raise ValueError(
                f"until_round ({self.until_round}) must be after "
                f"at_round ({self.at_round})"
            )


FailureEvent = (
    Crash | Recover | PartitionEvent | HealEvent | CrashMidSession | LossyWindow
)


@dataclass
class FailurePlan:
    """An ordered script of failure events keyed by round number.

    Each open :class:`LossyWindow` keeps its own RNG, and after every
    round the network's loss is the most recently opened window that is
    still open (a tie within a round goes to the event listed last), so
    overlapping or nested windows compose: closing one window
    reinstates whatever window is still open.
    """

    events: list[FailureEvent] = field(default_factory=list)
    #: Open lossy windows' ``(rate, rng)``, keyed by ``(at_round, event
    #: index)`` — their opening order; each window draws from its own RNG.
    _open_windows: dict[tuple[int, int], tuple[float, random.Random]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def apply_round(self, round_no: int, network: SimulatedNetwork) -> list[object]:
        """Fire every event scheduled for ``round_no``; returns them.
        (A :class:`LossyWindow` fires twice: once to open at its
        ``at_round``, once to close at its ``until_round``.)
        """
        fired: list[object] = []
        for index, event in enumerate(self.events):
            if isinstance(event, LossyWindow):
                key = (event.at_round, index)
                if round_no == event.at_round:
                    self._open_windows[key] = (event.rate, random.Random(event.seed))
                    fired.append(event)
                elif round_no == event.until_round and key in self._open_windows:
                    del self._open_windows[key]
                    fired.append(event)
                continue
            if event.at_round != round_no:
                continue
            if isinstance(event, Crash):
                network.set_down(event.node)
            elif isinstance(event, Recover):
                network.set_up(event.node)
            elif isinstance(event, CrashMidSession):
                network.arm_mid_session_crash(event.node, event.after_messages)
            elif isinstance(event, PartitionEvent):
                network.partition([list(group) for group in event.groups])
            else:
                network.heal()
            fired.append(event)
        network.set_loss(
            self._open_windows[max(self._open_windows)] if self._open_windows else None
        )
        return fired

    def final_round(self, event: FailureEvent) -> int:
        """The last round at which ``event`` changes network state."""
        if isinstance(event, LossyWindow):
            return event.until_round
        return event.at_round

    def pending_after(self, round_no: int) -> bool:
        """True while events remain that fire after ``round_no`` — a
        scheduled recovery (or window close) can still change the
        network, so callers must not treat the system as settled."""
        return any(self.final_round(event) > round_no for event in self.events)
