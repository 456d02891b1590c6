"""Trust-boundary validators for wire-decoded protocol values.

Everything that crosses a trust boundary — a frame decoded by
:mod:`repro.wire`, a client-op payload parsed by :mod:`repro.net`, a
WAL record replayed by :mod:`repro.durable` — is *untrusted*: the bytes
may parse fine and still carry values the protocol state machine must
not adopt verbatim (a node id outside the replica set, a seqno past any
plausible gap, a vector sized to blow up a merge loop).  This module is
the single place such values are checked, and the only place the R13
taint analysis (:mod:`repro.lint.taint`) accepts as clearing taint:
each ``validate_*`` function either raises :class:`ValidationError` or
returns its (now trusted) input, so call sites read
``answer = validate_session_answer(answer, ...)``.

The checks are calibrated against *honest* traffic so they never fire
on the simulator, the networked cluster, or durable replay:

* The replica set is fixed (paper section 2), so vectors and
  per-origin tail sets from an honest peer always match the local
  ``n_nodes`` exactly.
* Honest per-origin tails come from ``LogComponent.tail_after`` —
  oldest first, strictly increasing seqnos.  Overlap *below* the local
  DBVV is legitimate (the recipient drops it), so only the upper bound
  is budgeted: a seqno more than :data:`MAX_SEQNO_GAP` beyond the local
  component is a forgery, not a gap §6's ``log_gaps`` could ever heal.
* The item schema is fixed at database creation (paper section 2), so
  a payload or tail naming an unknown item cannot be honest.

Budgets are deliberately generous — they bound adversaries, not
workloads.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Union

from repro.core.messages import (
    ItemPayload,
    OutOfBoundReply,
    PropagationReply,
    PropagationRequest,
    YouAreCurrent,
)
from repro.core.version_vector import VersionVector
from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.node import EpidemicNode

__all__ = [
    "MAX_ITEM_NAME_LEN",
    "MAX_REPLICA_SET",
    "MAX_SEQNO_GAP",
    "MAX_VALUE_LEN",
    "MAX_VV_COMPONENT",
    "validate_item_name",
    "validate_node_id",
    "validate_oob_reply",
    "validate_propagation_reply",
    "validate_propagation_request",
    "validate_session_answer",
    "validate_value",
    "validate_version_vector",
]

# Upper bound on any single version-vector component.  Honest counters
# count local updates (one per user write); 2**48 writes at a million
# writes/second is nine years of traffic.
MAX_VV_COMPONENT = 1 << 48

# How far beyond the local per-origin component a shipped seqno may
# reach.  Honest overhang is bounded by updates the peer saw that we
# have not (frozen-DBVV contagion makes it nonzero, see ``log_gaps``),
# which is bounded by total system writes — 2**32 is far past any run.
MAX_SEQNO_GAP = 1 << 32

# Replica sets are small (the paper targets hundreds); 2**20 nodes is
# an absurd upper bound that still stops a forged ``n_nodes`` from
# driving a multi-gigabyte vector extension.
MAX_REPLICA_SET = 1 << 20

MAX_ITEM_NAME_LEN = 4096
MAX_VALUE_LEN = 1 << 26  # matches repro.wire MAX_FRAME_LEN

SessionAnswer = Union[YouAreCurrent, PropagationReply]


def validate_node_id(node_id: object, n_nodes: int) -> int:
    """An untrusted node id must be an int inside the replica set."""
    if isinstance(node_id, bool) or not isinstance(node_id, int):
        raise ValidationError(f"node id must be an int, got {type(node_id).__name__}")
    if not 0 <= node_id < n_nodes:
        raise ValidationError(
            f"node id {node_id} outside replica set of {n_nodes} nodes"
        )
    return node_id


def validate_item_name(name: object) -> str:
    """An untrusted item name must be a sanely-sized string."""
    if not isinstance(name, str):
        raise ValidationError(f"item name must be a str, got {type(name).__name__}")
    if len(name) > MAX_ITEM_NAME_LEN:
        raise ValidationError(
            f"item name of {len(name)} chars exceeds cap {MAX_ITEM_NAME_LEN}"
        )
    return name


def validate_value(value: object) -> bytes:
    """An untrusted item value must be bytes within the size budget."""
    if not isinstance(value, bytes):
        raise ValidationError(f"value must be bytes, got {type(value).__name__}")
    if len(value) > MAX_VALUE_LEN:
        raise ValidationError(
            f"value of {len(value)} bytes exceeds cap {MAX_VALUE_LEN}"
        )
    return value


def validate_version_vector(vv: object, n_nodes: int, what: str = "vector") -> VersionVector:
    """An untrusted version vector must cover exactly the local replica
    set (it is fixed, so honest peers always agree on length)
    with every counter inside the component budget.
    """
    if not isinstance(vv, VersionVector):
        raise ValidationError(
            f"{what} must be a VersionVector, got {type(vv).__name__}"
        )
    if len(vv) != n_nodes:
        raise ValidationError(
            f"{what} covers {len(vv)} nodes, local replica set has {n_nodes}"
        )
    # C-speed max() first; the Python loop only runs to name the
    # offending component once a violation is certain.  This check is
    # on the per-session hot path (every request carries a vector).
    counts = vv.as_tuple()
    if counts and max(counts) > MAX_VV_COMPONENT:
        for k, count in enumerate(counts):
            if count > MAX_VV_COMPONENT:
                raise ValidationError(
                    f"{what} component {k} is {count}, "
                    f"exceeds cap {MAX_VV_COMPONENT}"
                )
    return vv


def validate_propagation_request(
    request: object, node: "EpidemicNode"
) -> PropagationRequest:
    """Check a decoded anti-entropy request before serving it."""
    if not isinstance(request, PropagationRequest):
        raise ValidationError(
            f"expected PropagationRequest, got {type(request).__name__}"
        )
    validate_node_id(request.recipient, node.n_nodes)
    validate_version_vector(request.dbvv, node.n_nodes, what="request DBVV")
    return request


def _validate_tail(
    tail: object, origin: int, node: "EpidemicNode"
) -> None:
    """One per-origin tail: known items, strictly increasing seqnos
    (oldest first, as ``tail_after`` ships them), each within the gap
    budget over the local per-origin component.
    """
    if not isinstance(tail, tuple):
        raise ValidationError(
            f"tail for origin {origin} must be a tuple, got {type(tail).__name__}"
        )
    ceiling = node.dbvv[origin] + MAX_SEQNO_GAP
    names = node.store.names()
    prev = 0
    for entry in tail:
        if not isinstance(entry, tuple) or len(entry) != 2:
            raise ValidationError(f"malformed tail record for origin {origin}")
        item, seqno = entry
        # Inline tests pass an honest record; the named validator is
        # called only to raise.
        if type(item) is not str or len(item) > MAX_ITEM_NAME_LEN:
            validate_item_name(item)
        if item not in names:
            raise ValidationError(
                f"tail for origin {origin} names unknown item {item!r}"
            )
        if isinstance(seqno, bool) or not isinstance(seqno, int):
            raise ValidationError(
                f"tail seqno must be an int, got {type(seqno).__name__}"
            )
        if seqno <= prev:
            raise ValidationError(
                f"tail for origin {origin} not strictly increasing "
                f"({seqno} after {prev})"
            )
        if seqno > ceiling:
            raise ValidationError(
                f"tail seqno {seqno} for origin {origin} exceeds gap budget "
                f"(local component {node.dbvv[origin]} + {MAX_SEQNO_GAP})"
            )
        prev = seqno


def _validate_payload(payload: object, node: "EpidemicNode") -> None:
    """One shipped item payload — the per-item seam of reply validation.

    An ``ItemPayload`` is checked on its three slots with inline tests,
    the named ``validate_*`` functions running only to raise: checks
    and messages are those of the duck-typed body below, which
    ``DeltaPayload`` (an op chain in place of the value) still takes.
    """
    if type(payload) is ItemPayload:
        n_nodes = node.n_nodes
        name = payload.name
        if type(name) is not str or len(name) > MAX_ITEM_NAME_LEN:
            validate_item_name(name)
        if name not in node.store.names():
            raise ValidationError(f"payload names unknown item {name!r}")
        ivv = payload.ivv
        if (
            type(ivv) is not VersionVector
            or len(counts := ivv.as_tuple()) != n_nodes
            or (counts and max(counts) > MAX_VV_COMPONENT)
        ):
            validate_version_vector(ivv, n_nodes, what=f"payload {name!r} IVV")
        value = payload.value
        if (
            type(value) is not bytes or len(value) > MAX_VALUE_LEN
        ) and value is not None:
            validate_value(value)
        return
    name = getattr(payload, "name", None)
    if validate_item_name(name) not in node.store:
        raise ValidationError(f"payload names unknown item {name!r}")
    validate_version_vector(
        getattr(payload, "ivv", None), node.n_nodes, what=f"payload {name!r} IVV"
    )
    value = getattr(payload, "value", None)
    if value is not None:
        validate_value(value)
    ops = getattr(payload, "ops", None)
    if ops is not None:
        for entry in ops:
            validate_node_id(entry.origin, node.n_nodes)
            if entry.m <= 0 or entry.m > MAX_VV_COMPONENT:
                raise ValidationError(
                    f"op-chain seqno {entry.m} for item {name!r} out of range"
                )


def validate_propagation_reply(
    reply: object, node: "EpidemicNode"
) -> PropagationReply:
    """Check a decoded anti-entropy reply before adopting it."""
    if not isinstance(reply, PropagationReply):
        raise ValidationError(
            f"expected PropagationReply, got {type(reply).__name__}"
        )
    validate_node_id(reply.source, node.n_nodes)
    if not isinstance(reply.tails, tuple) or len(reply.tails) != node.n_nodes:
        raise ValidationError(
            f"reply carries {len(reply.tails) if isinstance(reply.tails, tuple) else '?'} "
            f"per-origin tails, local replica set has {node.n_nodes}"
        )
    for origin, tail in enumerate(reply.tails):
        # Empty tails are the common case (only origins the recipient
        # lags ship records) — an inline type check keeps the per-origin
        # call out of the hot path.
        if tail == ():
            continue
        _validate_tail(tail, origin, node)
    for payload in reply.items:
        _validate_payload(payload, node)
    # S is a set and D names exactly S (paper Fig. 2).  A second copy of
    # an item is skipped as "equal" and drops its log record with it; an
    # item without a record is adopted with nothing in the log to hand
    # on — both pass ``check_invariants`` and silently stop spreading.
    shipped = [payload.name for payload in reply.items]
    in_s = set(shipped)
    if len(in_s) != len(shipped):
        twice = Counter(shipped).most_common(1)[0][0]
        raise ValidationError(f"reply ships item {twice!r} more than once")
    in_d = set(map(itemgetter(0), chain.from_iterable(reply.tails)))
    if in_d != in_s:
        raise ValidationError(
            f"reply names item {min(in_d ^ in_s)!r} in only one of its "
            "tails and its shipped set"
        )
    return reply


def validate_session_answer(answer: object, peer_id: int) -> SessionAnswer:
    """The transport's half of checking a decoded session answer: it is
    one of the two legal answers, and it claims the peer the request
    was sent to — the one fact about a reply the session driver cannot
    know.  The reply *body* is checked where it is adopted, once
    (:meth:`~repro.core.session.PullSession.conclude`).
    """
    if not isinstance(answer, (YouAreCurrent, PropagationReply)):
        raise ValidationError(
            f"expected a session answer, got {type(answer).__name__}"
        )
    if answer.source != peer_id:
        raise ValidationError(
            f"answer claims source {answer.source}, session peer is {peer_id}"
        )
    return answer


def validate_oob_reply(reply: object, node: "EpidemicNode") -> OutOfBoundReply:
    """Check a decoded out-of-bound reply before installing the copy."""
    if not isinstance(reply, OutOfBoundReply):
        raise ValidationError(
            f"expected OutOfBoundReply, got {type(reply).__name__}"
        )
    validate_node_id(reply.source, node.n_nodes)
    if validate_item_name(reply.item) not in node.store:
        raise ValidationError(f"out-of-bound reply names unknown item {reply.item!r}")
    validate_value(reply.value)
    validate_version_vector(
        reply.ivv, node.n_nodes, what=f"out-of-bound {reply.item!r} IVV"
    )
    return reply
