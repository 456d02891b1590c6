"""R13 clean twin: the same flows, with every decoded value passing
through a sanctioned validator before it reaches a state sink.

Sanitizers are value-passing: only the *result* of the ``validate_*``
call is clean, so the wiring style is ``x = validate_...(x, ...)``.
"""

from repro.core.session import PullSession
from repro.core.validate import (
    validate_propagation_request,
    validate_session_answer,
)


def serve_request(node, codec, frame):
    request = codec.decode(frame)
    checked = validate_propagation_request(request, node)
    return node.send_propagation(checked)


def adopt_answer(node, peer_id, answer):
    answer = validate_session_answer(answer, peer_id)
    return PullSession(node).conclude(answer)
