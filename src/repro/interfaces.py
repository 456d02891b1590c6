"""The protocol-neutral node interface.

Every replication protocol in this library — the paper's DBVV protocol
and all five baselines — implements :class:`ProtocolNode`, so the
cluster simulator, the workload drivers, the convergence checker and the
experiment harness treat them interchangeably.  A protocol is reduced to
four abilities:

* apply a user update locally (``user_update``),
* serve a user read locally (``read``),
* perform one pair-wise synchronization with a peer (``sync_with``) —
  anti-entropy for the epidemic protocols, a push for Oracle-style
  replication; the protocol writes only the message exchange
  (``exchange``), and the shared session envelope turns transport
  faults into :class:`SyncStats`,
* expose its replica's content digest (``state_digest``), one integer,
  and the snapshot it digests (``state_fingerprint``), so convergence
  can be checked without knowing protocol internals.

``sync_with`` takes a :class:`Transport` — the simulated network,
:class:`repro.cluster.network.SimulatedNetwork` — that opens a
:class:`SessionScope` per session, charges traffic and models peer
availability.  Unit tests and examples that need no faults use a
fault-free ``SimulatedNetwork(n, counters=...)``.
"""

from __future__ import annotations

import abc
import enum
import functools
import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

from repro.errors import MessageLostError, NodeDownError
from repro.obs import NULL_COUNTERS, OverheadCounters
from repro.substrate.operations import UpdateOperation

__all__ = [
    "SessionPhase",
    "SessionScope",
    "SyncStats",
    "Transport",
    "ProtocolNode",
    "ContentDigest",
    "value_digest",
]


class SessionPhase(enum.Enum):
    """The leg of a session a message travels, recorded by the simulated
    network before each delivery (see
    :meth:`~repro.cluster.network.SimulatedNetwork.deliver`):
    ``REQUEST_SENT`` is initiator → responder, ``REPLY_IN_FLIGHT``
    responder → initiator.

    A session is not atomic — a fault (crash of either endpoint, a lost
    message) can interrupt it between any two messages — so the phase at
    abort names the leg of the message that died, which the failure
    experiments and the abort-accounting counters report on.
    Multi-exchange protocols (per-item-vv, Lotus) travel both legs again
    for their second exchange.
    """

    REQUEST_SENT = "request-sent"
    REPLY_IN_FLIGHT = "reply-in-flight"

    def counter_name(self) -> str:
        """The ``OverheadCounters.extra`` key aborts at this phase use."""
        return "sessions_aborted_at_" + self.value.replace("-", "_")


@dataclass(eq=False)
class SessionScope:
    """One session's progress: the leg of its latest message and the
    traffic it has generated so far.

    The transport opens it (:meth:`Transport.open_session`), sets
    :attr:`phase`, and attributes every delivered-or-dropped message to
    it via :meth:`note_message` — what makes
    ``bytes_wasted_in_aborted_sessions`` attributable.  Closing the
    scope stops the attribution.
    """

    initiator: int
    responder: int
    phase: SessionPhase | None = None
    messages: int = 0
    bytes_sent: int = 0
    closed: bool = False

    def note_message(self, size: int) -> None:
        """Attribute one message (delivered or dropped in flight) of
        ``size`` bytes to this session; called by the transport."""
        self.messages += 1
        self.bytes_sent += size

    def close(self) -> None:
        self.closed = True


_DIGEST_MASK = (1 << 64) - 1


def value_digest(item: str, value: bytes) -> int:
    """A 64-bit hash of one ``(item, value)`` binding.

    The item name participates so that swapping the values of two items
    changes the digest; the separator byte keeps ``("ab", b"c")`` and
    ``("a", b"bc")`` distinct.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(item.encode("utf-8"))
    h.update(b"\x00")
    h.update(value)
    return int.from_bytes(h.digest(), "big")


class ContentDigest:
    """A lazily maintained commutative digest of a replica's
    ``{item: value}`` state.

    The token is the sum (mod 2^64) of :func:`value_digest` over every
    item whose value is non-empty, so:

    * a value write only *marks* the item (:meth:`mark`: O(1), no hash,
      the old value is not kept); :meth:`token` folds the marked items,
      hashing each once however often it was written and subtracting
      its previous contribution — a replica nobody asks never hashes;
    * two replicas over the same schema have equal tokens iff their
      value maps are equal, up to 64-bit hash collisions (the same
      with-high-probability caveat any fingerprint scheme carries);
    * empty values contribute nothing, so a fresh replica starts at
      token 0 with no priming pass over the schema.

    Order never matters (addition commutes), which is what lets every
    protocol maintain the digest at its own write sites without any
    coordination of update order across nodes.  :meth:`recompute` is
    the from-scratch reference the token is tested against.
    """

    __slots__ = ("_acc", "_folded", "_stale")

    def __init__(self) -> None:
        self._acc = 0
        # Each item's contribution to ``_acc`` as of the last fold, and
        # the items written since, in an insertion-ordered dict used as
        # a set so the fold iterates deterministically.
        self._folded: dict[str, int] = {}
        self._stale: dict[str, None] = {}

    def mark(self, item: str) -> None:
        """Account one value write to ``item``."""
        self._stale[item] = None

    def reset(self, items: Iterable[str]) -> None:
        """Start over with ``items`` marked (a restore wrote the values
        directly): nothing is hashed until the next :meth:`token`."""
        self._acc = 0
        self._folded.clear()
        self._stale = dict.fromkeys(items)

    def token(self, value_of: Callable[[str], bytes]) -> int:
        """The digest, folding every marked item's current value
        ``value_of(item)`` first."""
        stale = self._stale
        if stale:
            folded = self._folded
            acc = self._acc
            for item in stale:
                value = value_of(item)
                contribution = value_digest(item, value) if value else 0
                acc += contribution - folded.get(item, 0)
                folded[item] = contribution
            self._acc = acc & _DIGEST_MASK
            stale.clear()
        return self._acc

    @staticmethod
    def recompute(pairs: Iterable[tuple[str, bytes]]) -> int:
        """The token of ``pairs`` computed from scratch."""
        acc = 0
        for item, value in pairs:
            if value:
                acc = (acc + value_digest(item, value)) & _DIGEST_MASK
        return acc

    def __repr__(self) -> str:
        return f"ContentDigest(token={self._acc:#018x}, marked={len(self._stale)})"


@dataclass
class SyncStats:
    """Summary of one pair-wise synchronization.

    ``identical``         — the session detected that no data had to move.
    ``items_transferred`` — item copies shipped and adopted.
    ``conflicts``         — conflicts detected during the session.
    ``messages`` / ``bytes_sent`` — traffic this session generated.
    ``failed``            — the session aborted (peer down / message lost).
    ``aborted_phase``     — the leg of the message an aborted session
                            died on (None while ``failed`` is False).
    ``adopted_items``     — ``(node_id, item)`` pairs whose durable value
                            may have changed during the session (every
                            pair that did change is among them), reported
                            by the protocol so staleness trackers can
                            re-examine exactly the dirty frontier instead
                            of rescanning every replica (push protocols
                            report the peer's id, pulls report their own,
                            symmetric exchanges report both).
    """

    identical: bool = False
    items_transferred: int = 0
    conflicts: int = 0
    messages: int = 0
    bytes_sent: int = 0
    failed: bool = False
    aborted_phase: SessionPhase | None = None
    adopted_items: tuple[tuple[int, str], ...] = ()


class _SizedMessage(Protocol):
    def wire_size(self) -> int: ...


class Transport(Protocol):
    """What a protocol needs from the network: a scope per session and
    the delivery of one message.

    ``open_session`` registers the session about to run and returns its
    :class:`SessionScope`.  ``deliver`` returns the message (identity —
    the simulation is in-process) after charging its size, or raises
    :class:`~repro.errors.NodeDownError` /
    :class:`~repro.errors.SimulationError` subclasses on failure.
    """

    def open_session(self, initiator: int, responder: int) -> SessionScope: ...

    def deliver(self, src: int, dst: int, message: _SizedMessage) -> _SizedMessage: ...


class ProtocolNode(abc.ABC):
    """One server running one replication protocol over one database.

    Concrete protocols: :class:`repro.core.protocol.DBVVProtocolNode`
    (the paper), :class:`repro.baselines.per_item.PerItemVVNode`,
    :class:`repro.baselines.lotus.LotusNode`,
    :class:`repro.baselines.oracle.OraclePushNode`,
    :class:`repro.baselines.wuu_bernstein.WuuBernsteinNode`,
    :class:`repro.baselines.agrawal_malpani.AgrawalMalpaniNode`.
    """

    #: Short protocol identifier used in experiment tables.
    protocol_name: str = "abstract"
    #: Whether the explorer's differential oracle may demand causal
    #: values: the protocol adopts by version-vector domination, so on a
    #: conflict-free schedule it must close to the same values as every
    #: other causal protocol.  Last-writer-wins protocols converge among
    #: their own replicas but may settle on another value.
    causal_values: bool = False

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        counters: OverheadCounters = NULL_COUNTERS,
    ):
        if not 0 <= node_id < n_nodes:
            raise ValueError(f"node_id {node_id} outside replica set 0..{n_nodes - 1}")
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.counters = counters

    # -- user operations -----------------------------------------------------

    @abc.abstractmethod
    def user_update(self, item: str, op: UpdateOperation) -> None:
        """Apply a user update at this replica."""

    @abc.abstractmethod
    def read(self, item: str) -> bytes:
        """Serve a user read from this replica."""

    # -- synchronization -----------------------------------------------------

    def sync_with(self, peer: "ProtocolNode", transport: Transport) -> SyncStats:
        """One scheduled pair-wise synchronization with ``peer``.

        For pull-style epidemic protocols ``self`` is the recipient
        catching up from ``peer``; for push-style protocols ``self``
        pushes its pending updates to ``peer``.  Either way, data flows
        so that after enough calls over enough pairs, replicas converge
        (or the protocol's documented weakness shows — that asymmetry is
        what the experiments measure).  The protocol supplies the
        messages (:meth:`exchange`); :meth:`_session` handles faults.
        """
        return self._session(
            peer, transport, functools.partial(self.exchange, peer, transport)
        )

    @abc.abstractmethod
    def exchange(
        self, peer: "ProtocolNode", transport: Transport, stats: SyncStats
    ) -> None:
        """The protocol's messages for one session with ``peer``.

        Moves every message through ``transport``, adopts what arrived,
        and fills ``stats`` (``identical``, ``items_transferred``,
        ``conflicts``, ``messages``, ``adopted_items``).  A transport
        fault simply propagates: the envelope records it.
        """

    def _session(
        self,
        peer: "ProtocolNode",
        transport: Transport,
        exchange: Callable[[SyncStats], None],
    ) -> SyncStats:
        """The session envelope: run ``exchange(stats)`` in a transport
        scope opened towards ``peer``; a ``NodeDownError`` or
        ``MessageLostError`` becomes a failed :class:`SyncStats` with the
        leg the session died on and the messages and bytes it had moved
        (charged like delivered ones: they left the sender)."""
        stats = SyncStats()
        scope = transport.open_session(self.node_id, peer.node_id)
        try:
            exchange(stats)
        except (NodeDownError, MessageLostError):
            stats.failed = True
            stats.aborted_phase = scope.phase
            stats.messages = scope.messages
        finally:
            scope.close()
        stats.bytes_sent = scope.bytes_sent
        return stats

    # -- introspection -------------------------------------------------------

    @abc.abstractmethod
    def state_fingerprint(self) -> dict[str, bytes]:
        """``{item: value}`` snapshot of the replica's durable state.

        Convergence means all nodes' fingerprints are equal.  Protocols
        with user-visible auxiliary state (the DBVV protocol's
        out-of-bound copies) report the *regular* durable state here;
        full convergence implies auxiliary copies were discarded.
        """

    @abc.abstractmethod
    def state_digest(self) -> int:
        """The :class:`ContentDigest` token of the durable state, equal
        to ``ContentDigest.recompute(state_fingerprint().items())``.

        ``fingerprints_equal`` compares digests instead of
        materializing full ``state_fingerprint()`` snapshots — the
        de-quadratization of the round loop.
        """

    @abc.abstractmethod
    def fingerprint_value(self, item: str) -> bytes:
        """One item's durable value, as ``state_fingerprint()[item]``,
        in O(1): staleness trackers probe single (node, item) pairs
        from a dirty frontier."""

    def conflict_count(self) -> int:
        """Conflicts this node has detected so far (0 for protocols that
        cannot detect conflicts — their silence is itself a finding)."""
        return 0

    # -- model-checking hooks (repro.explore) --------------------------------

    def exploration_key(self) -> tuple | None:
        """A canonical, hashable encoding of this replica's *complete*
        behavioural state, or ``None`` when the protocol opts out of
        exhaustive exploration.

        Contract (docs/PROTOCOL.md section 11): two nodes with equal
        keys must react identically to every future input — the key
        covers all durable protocol state (values, version metadata,
        logs, conflict flags), not just the value map, and excludes
        measurement state (counters, conflict *histories* beyond what
        the protocol itself reads back).  The explorer hashes these
        keys to prune revisited global states, so an under-inclusive
        key silently hides reachable behaviours.
        """
        return None

    def exploration_vectors(self) -> dict[str, tuple[int, ...]]:
        """This replica's monotonic version-vector state, as labelled
        component tuples — e.g. ``{"dbvv": (...), "ivv:x0": (...)}``.

        The exploration oracle asserts that every labelled vector grows
        component-wise along every transition (criterion C2: a replica
        never adopts a non-dominating copy, so no counter ever moves
        backwards).  Only include vectors that genuinely never regress;
        transient state (the DBVV protocol's auxiliary copies, which
        are discarded wholesale) must be left out.  The default — no
        vectors — makes the monotonicity check vacuous.
        """
        return {}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.node_id}/{self.n_nodes})"
