"""The simulated network.

Implements the :class:`~repro.interfaces.Transport` contract with the
properties the experiments need:

* **liveness** — messages to or from a crashed node raise
  :class:`~repro.errors.NodeDownError` (the sender notices; sessions
  abort cleanly, like a failed dial-up);
* **partitions** — nodes can be split into groups that cannot reach
  each other;
* **loss** — an optional independent per-message drop probability,
  deterministic under the injected RNG and adjustable at runtime through
  stacked windows (:meth:`push_loss_rate` / :meth:`pop_loss_rate`; the
  failure plan's lossy windows use this);
* **sessions** — anti-entropy sessions register a
  :class:`~repro.interfaces.SessionScope` so every message is
  attributed to the session that sent it and labelled with its leg
  (the scope's phase), which enables the scripted
  **mid-session faults**: crash a participant between two messages of a
  session (:meth:`arm_mid_session_crash`) or drop the N-th message of a
  session (:meth:`arm_message_drop`);
* **accounting** — global and per-link message/byte counters, plus the
  per-protocol counters sink, so traffic experiments (E8) can attribute
  every byte.  Messages dropped *in flight* (loss model or scripted
  drop) are charged like delivered ones — they left the sender — and
  additionally tracked in the drop counters; only a connect-time
  failure (dead or partitioned endpoint) is free;
* **encoded mode** — with ``wire=True`` (or ``REPRO_WIRE=1``) every
  delivery is encoded to a real binary frame by
  :class:`~repro.wire.WireCodec` at send and decoded back at receive,
  and all byte counters charge ``len(frame)`` instead of the modelled
  ``wire_size()`` (which is still accumulated, in
  ``modelled_bytes_sent``, so the model's drift is measurable).  The
  codec's delta-compressed version vectors make the caches part of the
  link state, so the network invalidates them on crash and recovery
  (:meth:`set_down` / :meth:`set_up`) and on in-flight drops.  With the
  sanitizer on as well, every delivery cross-checks
  ``decode(encode(message)) == message``.

Latency is not modelled: messages within a session are delivered in
program order, which matches the paper's round-level reasoning — the
fault points between them are what the session scope adds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.cluster.sanitizer import SANITIZE_ENV_VAR, WIRE_ENV_VAR, env_flag
from repro.errors import (
    InvariantViolation,
    MessageLostError,
    NodeDownError,
    SimulationError,
    UnknownNodeError,
)
from repro.interfaces import SessionPhase, SessionScope, _SizedMessage
from repro.obs import NULL_COUNTERS, OverheadCounters
from repro.wire import WireCodec

__all__ = ["LinkStats", "SimulatedNetwork"]


@dataclass
class LinkStats:
    """Traffic totals for one directed link.

    ``messages`` / ``bytes`` count everything that left the sender on
    this link, including messages later dropped in flight; ``dropped``
    and ``bytes_dropped`` count the in-flight losses among them.  Use
    :attr:`bytes_delivered` for the traffic that actually reached the
    receiver — ``bytes`` alone conflates delivered and lost bytes, and
    per-link usefulness analysis (E8) must not overstate useful traffic.
    """

    messages: int = 0
    bytes: int = 0
    dropped: int = 0
    bytes_dropped: int = 0

    @property
    def bytes_delivered(self) -> int:
        """Bytes that actually arrived on this link."""
        return self.bytes - self.bytes_dropped


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
    items:
        The item schema the replicas share, in store order: in encoded
        mode an item travels as its position in it.
    counters:
        Global sink charged for every message that leaves a sender.
    loss_rate:
        Probability each message is independently dropped (0 disables).
    rng:
        Randomness source for loss; required when ``loss_rate > 0`` so
        experiments stay reproducible.
    wire:
        Encoded mode: ``True``/``False`` wins, ``None`` defers to the
        ``REPRO_WIRE`` environment variable.
    sanitize:
        With encoded mode on, additionally verify on every delivery
        that the frame decodes back to a message equal to the original
        (``None`` defers to ``REPRO_SANITIZE``).
    """

    n_nodes: int
    items: Sequence[str]
    counters: OverheadCounters = field(default_factory=lambda: NULL_COUNTERS)
    loss_rate: float = 0.0
    rng: random.Random | None = None
    wire: bool | None = None
    sanitize: bool | None = None

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {self.n_nodes}")
        self.wire = env_flag(WIRE_ENV_VAR, self.wire)
        self.sanitize = env_flag(SANITIZE_ENV_VAR, self.sanitize)
        self._codec: WireCodec | None = WireCodec(self.items) if self.wire else None
        self._check_loss_rate(self.loss_rate)
        if self.loss_rate > 0.0 and self.rng is None:
            raise ValueError("loss_rate > 0 requires an explicit rng")
        self._base_loss_rate = self.loss_rate
        self._up = [True] * self.n_nodes
        # Partition groups: equal group ids can reach each other.  All
        # nodes start in one group (no partitions).
        self._group_of = [0] * self.n_nodes
        self._links: dict[tuple[int, int], LinkStats] = {}
        self.messages_dropped = 0
        self.bytes_dropped = 0
        #: Messages that left a sender, keyed by message class name —
        #: the frame-type traffic census the networked mode's parity
        #: harness compares against a real multi-process cluster.
        self.frame_census: dict[str, int] = {}
        self._session: SessionScope | None = None
        self._armed_crashes: list[_ArmedCrash] = []
        self._armed_drops: list[int] = []
        # Stacked lossy windows: (token, rate) in open order.  The most
        # recently opened window's rate is active; closing it falls back
        # to the previous still-open window, or the constructor rate.
        self._loss_windows: list[tuple[int, float]] = []
        self._next_loss_token = 0

    @staticmethod
    def _check_loss_rate(rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {rate}")

    # -- liveness ------------------------------------------------------------

    def is_up(self, node: int) -> bool:
        self._check_node(node)
        return self._up[node]

    def set_down(self, node: int) -> None:
        """Crash ``node``: no messages flow to or from it.  In encoded
        mode the crash also wipes the node's delta-VV caches — a real
        implementation loses its in-memory codec state with the
        process."""
        self._check_node(node)
        self._up[node] = False
        if self._codec is not None:
            self._codec.invalidate_node(node)

    def set_up(self, node: int) -> None:
        """Recover ``node``.  The delta-VV caches are invalidated again,
        defensively: peers that cached vectors *about* the crashed node
        must resend in full after it returns."""
        self._check_node(node)
        self._up[node] = True
        if self._codec is not None:
            self._codec.invalidate_node(node)

    def add_node(self) -> int:
        """Grow the fabric by one node (dynamic-membership extension);
        returns the new node's id.  The newcomer starts up.  While the
        network is unpartitioned it joins the common group; while any
        partition is active it forms a fresh singleton group — group ids
        are renumbered arbitrarily by :meth:`partition`, so landing the
        newcomer in any existing group would silently place it inside
        one side of a split it was never part of.
        """
        new_id = self.n_nodes
        self.n_nodes += 1
        self._up.append(True)
        groups = set(self._group_of)
        if len(groups) <= 1:
            self._group_of.append(self._group_of[0] if self._group_of else 0)
        else:
            self._group_of.append(max(groups) + 1)
        return new_id

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

    def push_loss_rate(self, rate: float, rng: random.Random | None = None) -> int:
        """Open a stacked lossy window at ``rate``; returns a token for
        :meth:`pop_loss_rate`.

        Windows stack: the most recently opened window's rate is the
        active one, and closing any window re-activates the most recent
        *still-open* window (or the constructor-time rate when none
        remain) — so overlapping or nested failure events cannot clobber
        each other's saved rate.
        """
        self._check_loss_rate(rate)
        if rng is not None:
            self.rng = rng
        if rate > 0.0 and self.rng is None:
            raise ValueError("loss_rate > 0 requires an explicit rng")
        token = self._next_loss_token
        self._next_loss_token += 1
        self._loss_windows.append((token, rate))
        self.loss_rate = rate
        return token

    def pop_loss_rate(self, token: int) -> None:
        """Close the stacked lossy window identified by ``token``; the
        active rate falls back to the most recently opened still-open
        window, or the constructor-time rate when none remain."""
        for index, (open_token, _rate) in enumerate(self._loss_windows):
            if open_token == token:
                del self._loss_windows[index]
                break
        else:
            raise SimulationError(
                f"pop_loss_rate token {token} does not match any open "
                "lossy window"
            )
        if self._loss_windows:
            self.loss_rate = self._loss_windows[-1][1]
        else:
            self.loss_rate = self._base_loss_rate

    def open_loss_windows(self) -> int:
        """Stacked lossy windows currently open (test/experiment aid)."""
        return len(self._loss_windows)

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

    def clear_armed_faults(self) -> int:
        """Disarm every scripted fault that has not fired yet; returns
        how many were cleared.

        The exhaustive explorer arms a fault for exactly one session; a
        session that finishes before the trigger message leaves the
        one-shot fault armed, and letting it leak into a *later* session
        would make that session's behaviour depend on scheduling history
        the state hash does not see."""
        cleared = len(self._armed_crashes) + len(self._armed_drops)
        self._armed_crashes.clear()
        self._armed_drops.clear()
        return cleared

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
        leave the sender: it is charged to the global and per-link
        counters like a delivered message, counted in the drop
        counters, and raises :class:`MessageLostError`.

        In encoded mode the message is encoded to a binary frame before
        the drop decision (the sender serialized it either way), every
        byte counter charges ``len(frame)``, and the *decoded* message
        is what reaches the caller — the original never crosses the
        simulated wire.
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
        frame: bytes | None = None
        if self._codec is not None:
            frame = self._codec.encode(src, dst, message)
            size = len(frame)
            self.counters.modelled_bytes_sent += message.wire_size()
        else:
            size = message.wire_size()
        self.counters.messages_sent += 1
        self.counters.bytes_sent += size
        kind = type(message).__name__
        self.frame_census[kind] = self.frame_census.get(kind, 0) + 1
        link = self._links.setdefault((src, dst), LinkStats())
        link.messages += 1
        link.bytes += size
        if session is not None:
            session.note_message(size)
        dropped = False
        if session is not None and session.messages in self._armed_drops:
            self._armed_drops.remove(session.messages)
            dropped = True
        if not dropped and self.loss_rate > 0.0:
            if self.rng is None:
                raise InvariantViolation(
                    "network has loss_rate > 0 but no RNG; push_loss_rate "
                    "should have rejected this configuration"
                )
            if self.rng.random() < self.loss_rate:
                dropped = True
        decoded: _SizedMessage | None = None
        if not dropped and self._codec is not None and frame is not None:
            # Decode before the armed-crash sweep below: the scripted
            # crash fires after this message *arrived*, and decoding
            # must advance the receiver's delta-VV caches before a
            # crash of either endpoint wipes them.
            decoded = self._codec.decode(src, dst, frame)
            if self.sanitize and decoded != message:
                raise InvariantViolation(
                    f"wire codec round-trip mismatch on {src}->{dst}: "
                    f"sent {message!r}, decoded {decoded!r}"
                )
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
            if self._codec is not None:
                # The encode above advanced the sender-side delta-VV
                # caches for a frame the receiver will never decode; the
                # link's caches must restart from full vectors.
                self._codec.invalidate_link(src, dst)
            self._drop(link, size, src, dst)
        if decoded is not None:
            return decoded
        return message

    def _drop(self, link: LinkStats, size: int, src: int, dst: int) -> None:
        self.messages_dropped += 1
        self.bytes_dropped += size
        link.dropped += 1
        link.bytes_dropped += size
        raise MessageLostError(src, dst)

    # -- accounting ------------------------------------------------------------

    def link_stats(self, src: int, dst: int) -> LinkStats:
        """Traffic totals for the directed link ``src -> dst``."""
        return self._links.get((src, dst), LinkStats())

    def total_messages(self) -> int:
        return sum(link.messages for link in self._links.values())

    def total_bytes(self) -> int:
        return sum(link.bytes for link in self._links.values())

    def total_bytes_delivered(self) -> int:
        """Bytes that actually reached a receiver, across all links."""
        return sum(link.bytes_delivered for link in self._links.values())

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise UnknownNodeError(node)
