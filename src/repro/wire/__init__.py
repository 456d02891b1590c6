"""Binary wire codec for the protocol's messages.

The simulator charges each message its modelled ``wire_size()``
(``WORD_SIZE`` words); this package is the real serialization a
:mod:`repro.net` replica sends, and its durable journal records: a
zero-dependency binary codec (LEB128 varints, length-prefixed
self-describing frames, a stable message-type registry).

Layout: :mod:`~repro.wire.varint` (the number format),
:mod:`~repro.wire.registry` (type-id table contract, checked against
the message classes by ``tests/wire/test_codec.py``),
:mod:`~repro.wire.codec` (frames, field primitives, the item
schema, self-contained version vectors, and the request DBVV delta
against the connection's last one) and
:mod:`~repro.wire.codecs` (the core protocol's encode/decode pairs,
type ids 1–10 less the retired 4 and 9 — the whole registry of a real
replica).
"""

from __future__ import annotations

import repro.wire.codecs  # noqa: F401  (populates the registry, ids 1-10)
from repro.wire.codec import (
    MAX_FRAME_LEN,
    MAX_SEQUENCE_ITEMS,
    Decoder,
    Encoder,
    Schema,
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
    "Schema",
    "WireCodec",
    "codec_for_class",
    "codec_for_id",
    "registered_codecs",
]
