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
    ``at_round .. until_round - 1``; at ``until_round`` the rate and
    RNG in force before it opened are restored.  The window draws its
    drops from its own RNG seeded with ``seed``, so they are the same
    whatever windows ran before it.
    """

    rate: float
    at_round: int
    until_round: int
    seed: int = 0

    def __post_init__(self) -> None:
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

    Lossy windows are opened and closed through the network's *stacked*
    window API (``push_loss_rate``/``pop_loss_rate``), so overlapping or
    nested :class:`LossyWindow` events compose: closing one window
    reinstates whatever window is still open instead of silently
    resetting to the constructor-time rate.
    """

    events: list[FailureEvent] = field(default_factory=list)
    #: Open lossy windows, keyed by event index in :attr:`events`; the
    #: values are the network's window tokens.
    _window_tokens: dict[int, int] = field(
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
                if round_no == event.at_round:
                    self._window_tokens[index] = network.push_loss_rate(
                        event.rate,
                        rng=random.Random(event.seed),
                    )
                    fired.append(event)
                elif round_no == event.until_round:
                    token = self._window_tokens.pop(index, None)
                    if token is not None:
                        network.pop_loss_rate(token)
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
