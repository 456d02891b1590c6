"""R13 violation: wire-decoded values reach protocol-state mutation
without passing through a ``repro.core.validate`` sanitizer."""


def apply_frame_directly(node, codec, frame):
    # decode() marks its result untrusted; .name/.op inherit the taint.
    message = codec.decode(frame)
    node.update(message.name, message.op)


def adopt_answer(node, answer):
    # ``answer`` names a trust-boundary parameter: tainted on entry.
    node.accept_propagation(answer)


def absorb_answer(vector, answer):
    # the batched rule-3 mutator is a state sink like the one-pair call
    vector.absorb_item_copies((), [payload.ivv for payload in answer.items])
