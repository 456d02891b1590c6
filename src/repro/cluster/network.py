"""The simulated network.

Implements the :class:`~repro.interfaces.Transport` contract with the
properties the experiments need:

* **liveness** — messages to or from a crashed node raise
  :class:`~repro.errors.NodeDownError` (the sender notices; sessions
  abort cleanly, like a failed dial-up);
* **partitions** — nodes can be split into groups that cannot reach
  each other;
* **loss** — at most one active ``(rate, rng)``: each message is
  dropped independently with that probability, drawn from that RNG
  (:meth:`set_loss`; the failure plan's lossy windows set it);
* **sessions** — anti-entropy sessions register a
  :class:`~repro.interfaces.SessionScope` so every message is
  attributed to the session that sent it and labelled with its leg
  (the scope's phase), which enables the scripted
  **mid-session faults**: crash a participant between two messages of a
  session (:meth:`arm_mid_session_crash`) or drop the N-th message of a
  session (:meth:`arm_message_drop`);
* **accounting** — every message that leaves a sender is charged its
  modelled ``wire_size()`` to the network's counters sink
  (``messages_sent`` / ``bytes_sent``) and counted in the frame
  census, so traffic experiments (E8) can attribute every byte.
  Messages dropped *in flight* (loss model or scripted drop) are
  charged like delivered ones — they left the sender; only a
  connect-time failure (dead or partitioned endpoint) is free.  The
  recipient gets the sender's object: the bytes a deployed replica
  sends are measured on :mod:`repro.net`'s sockets, not here.

Latency is not modelled: messages within a session are delivered in
program order, which matches the paper's round-level reasoning — the
fault points between them are what the session scope adds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import MessageLostError, NodeDownError, UnknownNodeError
from repro.interfaces import SessionPhase, SessionScope, _SizedMessage
from repro.obs import NULL_COUNTERS, OverheadCounters

__all__ = ["SimulatedNetwork"]


@dataclass
class _ArmedCrash:
    """One-shot scripted fault: crash ``node`` once a session it
    participates in has moved ``after_messages`` messages."""

    node: int
    after_messages: int


@dataclass
class SimulatedNetwork:
    """A crash/partition/loss-aware message fabric for ``n_nodes``.

    Parameters
    ----------
    n_nodes:
        Size of the replica set.
    counters:
        Global sink charged for every message that leaves a sender.
    """

    n_nodes: int
    counters: OverheadCounters = field(default_factory=lambda: NULL_COUNTERS)

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {self.n_nodes}")
        #: The active loss ``(rate, rng)``, or ``None`` for no loss.
        self.loss: tuple[float, random.Random] | None = None
        self._up = [True] * self.n_nodes
        # Partition groups: equal group ids can reach each other.  All
        # nodes start in one group (no partitions).
        self._group_of = [0] * self.n_nodes
        #: Messages that left a sender, keyed by message class name —
        #: the frame-type traffic census the networked mode's parity
        #: harness compares against a real multi-process cluster.
        self.frame_census: dict[str, int] = {}
        self._session: SessionScope | None = None
        self._armed_crashes: list[_ArmedCrash] = []
        self._armed_drops: list[int] = []

    # -- liveness ------------------------------------------------------------

    def is_up(self, node: int) -> bool:
        self._check_node(node)
        return self._up[node]

    def set_down(self, node: int) -> None:
        """Crash ``node``: no messages flow to or from it."""
        self._check_node(node)
        self._up[node] = False

    def set_up(self, node: int) -> None:
        """Recover ``node``."""
        self._check_node(node)
        self._up[node] = True

    # -- partitions ------------------------------------------------------------

    def partition(self, groups: list[list[int]]) -> None:
        """Split the network into the given groups; unlisted nodes each
        form a singleton group.  Nodes in different groups cannot
        exchange messages until :meth:`heal`.
        """
        assignment: dict[int, int] = {}
        for gid, group in enumerate(groups):
            for node in group:
                self._check_node(node)
                if node in assignment:
                    raise ValueError(f"node {node} listed in two partition groups")
                assignment[node] = gid
        next_gid = len(groups)
        for node in range(self.n_nodes):
            if node not in assignment:
                assignment[node] = next_gid
                next_gid += 1
        self._group_of = [assignment[node] for node in range(self.n_nodes)]

    def heal(self) -> None:
        """Remove all partitions (crashed nodes stay crashed)."""
        self._group_of = [0] * self.n_nodes

    def can_reach(self, src: int, dst: int) -> bool:
        """True when a message from ``src`` could currently reach ``dst``."""
        self._check_node(src)
        self._check_node(dst)
        return (
            self._up[src]
            and self._up[dst]
            and self._group_of[src] == self._group_of[dst]
        )

    # -- loss ------------------------------------------------------------------

    def set_loss(self, loss: tuple[float, random.Random] | None) -> None:
        """Make ``loss`` the active ``(rate, rng)``: every later message
        is dropped with probability ``rate``, drawn from ``rng``, until
        the next call.  ``None`` switches loss off."""
        if loss is not None and not 0.0 <= loss[0] < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss[0]}")
        self.loss = loss

    # -- sessions and scripted faults -----------------------------------------

    def open_session(self, initiator: int, responder: int) -> SessionScope:
        """Register the session about to run between ``initiator`` and
        ``responder``; messages delivered until ``close()`` are
        attributed to it and scripted mid-session faults apply to it.
        Sessions are sequential in the simulation, so opening a new
        scope supersedes any stale unclosed one.
        """
        self._check_node(initiator)
        self._check_node(responder)
        scope = SessionScope(initiator, responder)
        self._session = scope
        return scope

    def arm_mid_session_crash(self, node: int, after_messages: int = 1) -> None:
        """One-shot scripted fault: the next time a session involving
        ``node`` has moved ``after_messages`` messages, crash ``node``
        between messages — the session's next delivery finds it dead.
        """
        self._check_node(node)
        if after_messages < 1:
            raise ValueError(
                f"after_messages must be >= 1, got {after_messages}"
            )
        self._armed_crashes.append(_ArmedCrash(node, after_messages))

    def arm_message_drop(self, nth_message: int = 1) -> None:
        """One-shot scripted fault: drop the ``nth_message``-th message
        of the next session that gets that far (counting from 1)."""
        if nth_message < 1:
            raise ValueError(f"nth_message must be >= 1, got {nth_message}")
        self._armed_drops.append(nth_message)

    def armed_fault_count(self) -> int:
        """Scripted faults still waiting to fire (test/experiment aid)."""
        return len(self._armed_crashes) + len(self._armed_drops)

    def clear_armed_faults(self) -> None:
        """Disarm every scripted fault that has not fired yet.

        The exhaustive explorer arms a fault for exactly one session; a
        session that finishes before the trigger message leaves the
        one-shot fault armed, and letting it leak into a *later* session
        would make that session's behaviour depend on scheduling history
        the state hash does not see."""
        self._armed_crashes.clear()
        self._armed_drops.clear()

    # -- delivery ------------------------------------------------------------

    def deliver(self, src: int, dst: int, message: _SizedMessage) -> _SizedMessage:
        """Deliver ``message`` from ``src`` to ``dst``, charging traffic.

        With a session open, the message's leg is recorded first as the
        scope's phase (see :class:`~repro.interfaces.SessionPhase`).

        Raises :class:`NodeDownError` when either endpoint is down or the
        endpoints are partitioned apart — detected at connect time,
        before bytes flow, so nothing is charged (sessions are
        connection-oriented, as a dial-up link would be).  A message
        dropped *in flight* (the loss model or a scripted drop) did
        leave the sender: it is charged to the counters like a
        delivered message and raises :class:`MessageLostError`.
        """
        self._check_node(src)
        self._check_node(dst)
        session = self._session if self._session is not None and not self._session.closed else None
        if session is not None:
            # The leg is known before the connect check, so a session
            # that dies dialling its reply is attributed to that leg.
            session.phase = (
                SessionPhase.REQUEST_SENT
                if src == session.initiator
                else SessionPhase.REPLY_IN_FLIGHT
            )
        if not self._up[src]:
            raise NodeDownError(src)
        if not self._up[dst] or self._group_of[src] != self._group_of[dst]:
            raise NodeDownError(dst)
        size = message.wire_size()
        self.counters.messages_sent += 1
        self.counters.bytes_sent += size
        kind = type(message).__name__
        self.frame_census[kind] = self.frame_census.get(kind, 0) + 1
        if session is not None:
            session.note_message(size)
        dropped = False
        if session is not None and session.messages in self._armed_drops:
            self._armed_drops.remove(session.messages)
            dropped = True
        if not dropped and self.loss is not None:
            rate, rng = self.loss
            dropped = rng.random() < rate
        # Scripted crash *between* messages: fires after this message
        # left the sender, so the session's next message finds the node
        # dead mid-exchange.  The sweep runs before a drop is raised —
        # the message was sent (and counted) whether or not it arrives,
        # so an armed crash whose trigger message is itself dropped
        # still fires instead of silently staying armed forever.
        if session is not None:
            for armed in list(self._armed_crashes):
                if (
                    armed.node in (session.initiator, session.responder)
                    and session.messages >= armed.after_messages
                ):
                    self._armed_crashes.remove(armed)
                    self.set_down(armed.node)
        if dropped:
            raise MessageLostError(src, dst)
        return message

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise UnknownNodeError(node)
