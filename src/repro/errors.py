"""Exception hierarchy for the epidemic replication library.

All library-raised exceptions derive from :class:`ReplicationError` so
callers can catch everything from this package with a single handler
while still being able to discriminate on the specific failure.
"""

from __future__ import annotations


class ReplicationError(Exception):
    """Base class for every error raised by this library."""


class UnknownItemError(ReplicationError, KeyError):
    """An operation referenced a data item that does not exist."""

    def __init__(self, item: str):
        super().__init__(f"unknown data item: {item!r}")
        self.item = item


class UnknownNodeError(ReplicationError, KeyError):
    """An operation referenced a server/node id outside the replica set."""

    def __init__(self, node: int):
        super().__init__(f"unknown node id: {node!r}")
        self.node = node


class ReplicaSetMismatchError(ReplicationError, ValueError):
    """Two version vectors (or replicas) cover different server sets.

    The paper assumes a fixed replica set (paper section 2); vectors over
    different server sets are not comparable and mixing them is a
    programming error, not a runtime condition to be papered over.
    """


class ConflictError(ReplicationError):
    """Raised when a conflict is detected and the configured conflict
    policy is :data:`~repro.core.conflicts.ConflictPolicy.RAISE`.
    """

    def __init__(self, item: str, detail: str = ""):
        message = f"inconsistent replicas detected for item {item!r}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.item = item
        self.detail = detail


class InvariantViolation(ReplicationError, AssertionError):
    """A protocol invariant did not hold — the replica is corrupt.

    Raised by the ``check_invariants`` paths (and the run-time sanitizer
    built on them) instead of a bare ``assert`` so the checks survive
    ``python -O``.  Subclasses :class:`AssertionError` as well, because an
    invariant violation *is* an assertion failure — existing handlers and
    tests that expect ``AssertionError`` keep working.
    """


class ProtocolStateError(ReplicationError, TypeError):
    """A protocol exchange produced a message of an impossible type —
    e.g. ``SendPropagation`` answering an out-of-bound request — or was
    asked to run against a peer of another protocol.  Used for explicit
    type narrowing where a bare ``assert isinstance(...)`` would silently
    vanish under ``python -O``.
    """

    def __init__(self, expected: str, got: object):
        super().__init__(
            f"protocol exchange expected {expected}, got {type(got).__name__}"
        )
        self.expected = expected
        self.got = got


class NodeDownError(ReplicationError):
    """A message was sent to a crashed server."""

    def __init__(self, node: int):
        super().__init__(f"node {node} is down")
        self.node = node


class OperationError(ReplicationError, ValueError):
    """An update operation could not be applied to the current value
    (e.g. a byte-range patch beyond the end of the value).
    """


class SimulationError(ReplicationError, RuntimeError):
    """The discrete-event simulation was driven into an invalid state
    (e.g. scheduling an event in the past)."""


class ConvergenceError(ReplicationError, AssertionError):
    """Replicas failed to converge within the allotted rounds/time.

    Silent non-convergence is exactly the failure mode the experiments
    must catch, so ``run_until_converged`` raises instead of returning.
    Subclasses :class:`AssertionError` for compatibility with callers
    and tests that predate the taxonomy; catching
    :class:`ReplicationError` now covers non-convergence too.
    """


class MessageLostError(ReplicationError):
    """A message was dropped by the (lossy) simulated network."""

    def __init__(self, src: int, dst: int):
        super().__init__(f"message from node {src} to node {dst} was lost")
        self.src = src
        self.dst = dst


class WireFormatError(ReplicationError, ValueError):
    """A binary wire frame could not be encoded or decoded.

    Raised by :mod:`repro.wire` for truncated frames, unknown message
    type ids, malformed varints, delta-encoded version vectors without a
    cached base, and every other framing defect — a corrupt frame must
    surface as one typed error, never as a bare ``struct.error`` or
    ``IndexError`` from the decoder's internals.
    """


class ValidationError(ReplicationError, ValueError):
    """A wire-decoded value failed trust-boundary validation.

    Raised by :mod:`repro.core.validate` when a decoded frame, a client
    operation payload, or a replayed WAL record carries a value the
    protocol must not trust verbatim — a node id outside the replica
    set, a sequence number past the gap budget, an oversized vector or
    value, a tail that is not strictly increasing.  Distinct from
    :class:`WireFormatError`: the bytes *parsed* fine, but the parsed
    value violates a protocol invariant the state machine relies on.
    Lint rule R13 requires every decode→state-mutation path to pass
    through a validator that raises this error.
    """


class NetworkSessionError(ReplicationError):
    """A networked anti-entropy session could not complete.

    Raised by :mod:`repro.net` when a peer is unreachable, a connection
    dies mid-session and the reconnect budget is exhausted, or the
    handshake fails — the networked analogue of the simulator's
    :class:`NodeDownError`/:class:`MessageLostError` session aborts.
    """


class DurabilityError(ReplicationError):
    """Base class for durable-storage failures (:mod:`repro.durable`)."""


class WALError(DurabilityError):
    """A write-ahead-log record is corrupt beyond the torn-tail rule.

    A *torn tail* — a record cut short by a crash mid-write — is an
    expected crash artifact and is silently truncated on recovery.  This
    error covers what truncation cannot explain: a record whose CRC
    matches but whose body does not decode, an impossible record kind,
    or trailing garbage inside a CRC-valid body.  Those mean the log was
    damaged (or written by a bug), and recovery must stop rather than
    replay a guess.
    """

