"""The anti-entropy session state machine, sans I/O.

One update-propagation session (paper Figs. 2–3) is a pull: the
recipient sends its DBVV, the source answers with either
:class:`~repro.core.messages.YouAreCurrent` or a
:class:`~repro.core.messages.PropagationReply`, and the recipient
adopts the reply.  That machine used to live inline in the simulator's
protocol adapter, welded to the in-process transport; the networked
mode (:mod:`repro.net`) runs the *same* session over TCP sockets, so
the machine is factored out here with every I/O edge left to the
caller:

* :class:`PullSession` is the recipient side — :meth:`PullSession.
  request` produces the message to send, :meth:`PullSession.conclude`
  consumes whatever answer came back and applies it to the node;
* :func:`respond` is the source side — one request in, one answer out.

Both drivers operate directly on the pure
:class:`~repro.core.node.EpidemicNode` state machine; how the messages
travel (an in-process :class:`~repro.interfaces.Transport`, a binary
frame over a socket) and how faults surface (exceptions, closed
connections) is entirely the caller's business.  The simulator's
:class:`~repro.core.protocol.DBVVProtocolNode` and the asyncio peer in
:mod:`repro.net` consume exactly these entry points, which is what the
differential parity harness relies on: both deployments drive
bit-identical protocol logic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.messages import (
    PropagationReply,
    PropagationRequest,
    YouAreCurrent,
)
from repro.core.node import EpidemicNode
from repro.core.validate import (
    validate_propagation_reply,
    validate_propagation_request,
)
from repro.errors import ProtocolStateError

__all__ = ["PullOutcome", "PullSession", "respond"]


@dataclass(frozen=True, slots=True)
class PullOutcome:
    """What one concluded pull did to the recipient.

    ``identical``
        The source answered :class:`YouAreCurrent` — no data moved.
    ``adopted``
        Names of items whose durable value changed (adoption plus any
        intra-node replay restricted to them).
    ``conflicts``
        Conflicts newly detected during this session.
    """

    identical: bool
    adopted: tuple[str, ...]
    conflicts: int


class PullSession:
    """Recipient side of one anti-entropy pull; no I/O.

    The caller moves the messages::

        session = PullSession(node)
        request = session.request()       # ... send it to the source ...
        answer = ...                      # ... however it comes back ...
        outcome = session.conclude(answer)

    A session object is single-use: ``request`` then ``conclude``, once
    each.  Faults are the transport's concern — if the answer never
    arrives, simply drop the session object; the node state machine has
    not been touched (``AcceptPropagation`` is local and atomic, and it
    only runs inside :meth:`conclude`).
    """

    __slots__ = ("_node", "_conflicts_before")

    def __init__(self, node: EpidemicNode) -> None:
        self._node = node
        self._conflicts_before = node.conflicts.count

    def request(self) -> PropagationRequest:
        """The session's opening message: this replica's DBVV."""
        return self._node.make_propagation_request()

    def conclude(self, answer: object) -> PullOutcome:
        """Apply the source's answer; returns what the session did.

        The answer must be fully received before this is called — a
        mid-session fault can then never leave a half-applied adoption.
        Any message type other than the two legal answers raises
        :class:`~repro.errors.ProtocolStateError`.
        """
        if isinstance(answer, YouAreCurrent):
            return PullOutcome(identical=True, adopted=(), conflicts=0)
        if not isinstance(answer, PropagationReply):
            raise ProtocolStateError("PropagationReply", answer)
        # The answer may have crossed a trust boundary (a TCP frame in
        # repro.net); adopt nothing a validator has not sanctioned (lint
        # rule R13).  This is the one deep check of the body on every
        # path: a transport checks only what it alone knows (the answer
        # came from the peer it dialled) before handing the answer over.
        reply = validate_propagation_reply(answer, self._node)
        outcome, _intra = self._node.accept_propagation(reply)
        return PullOutcome(
            identical=False,
            adopted=tuple(outcome.adopted),
            conflicts=self._node.conflicts.count - self._conflicts_before,
        )


def respond(
    node: EpidemicNode, request: PropagationRequest
) -> YouAreCurrent | PropagationReply:
    """Source side of one pull: the paper's ``SendPropagation`` answer
    to ``request``.  Pure computation — the caller delivers the result
    back to the recipient however it likes."""
    checked = validate_propagation_request(request, node)
    return node.send_propagation(checked)
