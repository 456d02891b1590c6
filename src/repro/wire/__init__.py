"""Binary wire codec for every protocol and baseline message.

The modelled byte accounting (``wire_size``/``WORD_SIZE``) keeps the
paper's cost model auditable, but it is still a model.  This package
makes the traffic numbers *byte-exact*: a zero-dependency binary codec
(LEB128 varints, length-prefixed self-describing frames, a stable
message-type registry) that the simulated network can run in **encoded
mode** — every delivery is encoded to a real frame at send and decoded
back at receive, and ``bytes_sent`` counts ``len(frame)``.

Encoded mode is off by default (the modelled sizes stay the tier-1
contract) and enabled per run with ``ClusterSimulation(wire=True)`` /
``SimulatedNetwork(wire=True)`` or globally with ``REPRO_WIRE=1``,
mirroring the sanitizer's ``REPRO_SANITIZE`` toggle.

Layout: :mod:`~repro.wire.varint` (the number format),
:mod:`~repro.wire.registry` (type-id table contract, audited by lint
rule R8), :mod:`~repro.wire.codec` (frames, field primitives, and
delta-compressed version vectors), :mod:`~repro.wire.codecs` (the
core protocol's encode/decode pairs, type ids 1–9 less the retired 4 —
the whole registry of a real replica) and :mod:`~repro.wire.baseline_codecs` (ids 16–50,
registered by importing :mod:`repro.baselines`, never by this package).
"""

from __future__ import annotations

import repro.wire.codecs  # noqa: F401  (populates the registry, ids 1-9)
from repro.wire.codec import (
    MAX_FRAME_LEN,
    MAX_SEQUENCE_ITEMS,
    Decoder,
    Encoder,
    WireCodec,
)
from repro.wire.registry import (
    MessageCodec,
    codec_for_class,
    codec_for_id,
    registered_codecs,
)

__all__ = [
    "Decoder",
    "Encoder",
    "MAX_FRAME_LEN",
    "MAX_SEQUENCE_ITEMS",
    "MessageCodec",
    "WireCodec",
    "codec_for_class",
    "codec_for_id",
    "registered_codecs",
]
