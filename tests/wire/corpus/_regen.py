"""Regenerate the malformed-frame corpus.

Run from the repo root after a deliberate wire-format change::

    PYTHONPATH=src python tests/wire/corpus/_regen.py

Each case starts from a frame the real codec produced (or a hand-built
payload using the same varint primitives) and applies one documented
corruption.  The corpus is *checked in*: the test replays the hex files
byte-for-byte, so a format change that silently starts accepting one of
these frames fails loudly instead of rotting unnoticed.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.messages import (
    ItemPayload,
    PropagationReply,
    PropagationRequest,
    YouAreCurrent,
)
from repro.core.version_vector import VersionVector
from repro.wire.codec import MAX_SEQUENCE_ITEMS, WireCodec
from repro.wire.varint import write_uvarint

CORPUS = Path(__file__).parent

#: The item schema the corpus is written and replayed with
#: (``tests/wire/test_corpus.py`` holds the same three names).
SCHEMA = ("a", "b", "x")

#: What the parent commit's codec wrote for node 1's answer to node 0
#: after ``b.update("a", Put(b"xy")); b.update("b", Put(b"z"));
#: b.update("a", Put(b"xyz"))`` on a two-node, two-item database.
V1_REPLY_FRAME = bytes.fromhex(
    "20040102000201620201610302010162017a000200010101610378797a00020002"
)
#: The same answer as the v2 codec wrote it (type id 9: items by name,
#: item IVVs against the link's delta cache), kept from the parent of
#: the v3 reply.
V2_REPLY_FRAME = bytes.fromhex(
    "1e090102010162017a000200010101610378797a0002000202000200040102"
)


def _uvarint(value: int) -> bytes:
    buf = bytearray()
    write_uvarint(buf, value)
    return bytes(buf)


def _frame(payload: bytes) -> bytes:
    return _uvarint(len(payload)) + payload


def _write(name: str, frame: bytes) -> None:
    text = frame.hex()
    lines = [text[i : i + 64] for i in range(0, len(text), 64)] or [""]
    (CORPUS / f"{name}.hex").write_text("\n".join(lines) + "\n")
    print(f"{name}.hex: {len(frame)} byte(s)")


def main() -> None:
    vv = VersionVector.from_counts((3, 0, 7))
    request = PropagationRequest(1, vv)

    # 1. Valid frame with its last byte removed.
    valid = WireCodec(SCHEMA).encode(request)
    _write("truncated_frame", valid[:-1])

    # 2. Length prefix one larger than the actual payload.
    _write(
        "length_prefix_overrun", _uvarint(len(valid[1:]) + 1) + valid[1:]
    )

    # 3. Length prefix far past MAX_FRAME_LEN; payload is tiny.  Decoding
    #    must reject the prefix before sizing anything from it.
    _write("over_cap_length_prefix", _uvarint(1 << 60) + b"\x02\x00")

    # 4. Unregistered message type id.
    _write("unknown_type_id", _frame(_uvarint(4095)))

    # 5. Payload ends inside a varint (continuation bit set, no
    #    terminator byte).
    _write("unterminated_varint", _frame(b"\x80"))

    # 6. An ItemPayload whose item position is one past the schema.
    item = WireCodec(SCHEMA).encode(ItemPayload("x", b"xy", vv))
    assert item[2] == SCHEMA.index("x")
    _write(
        "item_past_schema",
        item[:2] + _uvarint(len(SCHEMA)) + item[3:],
    )

    # 7. Delta-form version vector with no cached base at the receiver:
    #    encode the same request twice on one codec and keep the second
    #    (delta) frame — a fresh codec must refuse it.
    delta_codec = WireCodec(SCHEMA)
    delta_codec.encode(request)
    _write("delta_without_base", delta_codec.encode(request))

    # 8. bytes_ field whose length prefix overruns the payload:
    #    ItemPayload(item "a", position 0) with a value field claiming
    #    0x7f bytes.
    _write(
        "bytes_field_overrun",
        _frame(_uvarint(1) + b"\x00" + b"\x7f" + b"\x78\x79"),
    )

    # 9. Full-form version vector declaring one component more than
    #    MAX_SEQUENCE_ITEMS; Decoder.count() must refuse before the
    #    component loop runs.
    _write(
        "over_cap_count",
        _frame(
            _uvarint(2)  # PropagationRequest
            + _uvarint(1)  # recipient
            + b"\x00"  # full-form vv tag
            + _uvarint(MAX_SEQUENCE_ITEMS + 1)
        ),
    )

    # 10. Valid body followed by garbage the length prefix *does* cover:
    #     decode succeeds, then the unconsumed-bytes check fires.
    you = WireCodec(SCHEMA).encode(YouAreCurrent(2))
    _write("trailing_bytes", _frame(you[1:] + b"\xde\xad"))

    # 11. Unknown version-vector tag byte (neither full 0x00 nor delta
    #     0x01).
    _write(
        "unknown_vv_tag",
        _frame(_uvarint(2) + _uvarint(1) + b"\x07"),
    )

    # 12. Zero-length payload: the message type id itself is missing.
    _write("empty_payload", _uvarint(0))

    # 13. A reply frame written by the v1 codec (type id 4: names in
    #     the tails *and* in the payloads, absolute seqnos) — bytes kept
    #     from the parent of the format change, which this tree can no
    #     longer produce.  Id 4 is retired: the frame must be refused
    #     as an unknown type id, never half-read.
    _write("reply_v1_parent_written", V1_REPLY_FRAME)

    # 14. The 12 KB frame that made the v1 decoder raise RecursionError:
    #     3000 replies nested in each other's item position
    #     (id 4 · source 0 · 0 tails · 1 item), a YouAreCurrent inside.
    _write("nested_reply_v1", _frame(bytes([4, 0, 0, 1]) * 3000 + bytes([3, 0])))

    # 15. The same attack spelled in v3 (id 10 · source 0 · 1 item):
    #     the reply decoder takes its two payload tags only, so the
    #     first nested 10 is refused and nothing recurses.
    _write("nested_reply", _frame(bytes([10, 0, 1]) * 3000 + bytes([3, 0])))

    # 16. A well-formed YouAreCurrent (id 3, source 1, no tails) where
    #     a reply's payload tag belongs.
    _write("reply_item_not_a_payload", _frame(bytes([10, 1, 1, 3, 1, 0])))

    # 17. A tail record pointing one past the shipped set: a valid
    #     one-item reply whose record index 0 is rewritten to 1.
    reply = WireCodec(SCHEMA).encode(
        PropagationReply(1, ((("a", 5),),), (ItemPayload("a", b"xy", vv),))
    )
    assert reply[-2:] == bytes([0, 10])  # index 0, svarint(+5)
    _write("reply_tail_index_out_of_range", reply[:-2] + bytes([1, 10]))

    # 18. A request whose DBVV is a delta of +1 on component 0, for a
    #     link whose cached DBVV holds 2**64 - 1 there (the frame before
    #     it on the link; ``tests/wire/test_corpus.py`` sends that
    #     primer first).  The delta branch must bound the sum — it used
    #     to reach the component array as a bare ValueError.
    _write(
        "delta_vv_overflows_u64",
        _frame(
            _uvarint(2)  # PropagationRequest
            + _uvarint(1)  # recipient
            + bytes([0x01, 1, 0, 2])  # delta · 1 change · gap 0 · +1
        ),
    )

    # 19. A reply frame written by the v2 codec (type id 9), bytes kept
    #     from the parent of the v3 reply.  Id 9 is retired like 4.
    _write("reply_v2_parent_written", V2_REPLY_FRAME)

    # 20. A v3 reply whose item IVV is a link-cached delta (tag 0x01):
    #     a reply reads no cache, so the tag itself is refused, cached
    #     base or not.
    reply = WireCodec(SCHEMA).encode(
        PropagationReply(1, (), (ItemPayload("a", b"xy", vv),))
    )
    full_ivv = bytes([0x00, 3, 3, 0, 7])
    assert reply.count(full_ivv) == 1
    delta = _frame(reply[1:].replace(full_ivv, bytes([0x01, 0])))
    _write("reply_delta_ivv", delta)

    # 21-24. The bounds of the reply decoder's inline loop: each frame
    #     is a v3 reply payload cut short (or lying) and framed again,
    #     so the exact-length frame check passes and the reply decoder
    #     itself meets the end.  ``payload`` is the same one-item reply:
    #     id 10 · source 1 · 1 item · tag 0 · item "a" · value b"xy" ·
    #     full IVV (3, 0, 7) · 0 tails.
    payload = reply[1:]
    assert payload == bytes([10, 1, 1, 0, 0, 2]) + b"xy" + full_ivv + b"\x00"
    value_at = payload.index(b"xy")
    ivv_at = payload.index(full_ivv)
    _write("reply_ends_in_value", _frame(payload[: value_at + 1]))
    _write("reply_ends_in_full_ivv", _frame(payload[: ivv_at + 3]))
    # A two-byte item position whose second byte never comes.
    _write("reply_ends_in_item_position", _frame(bytes([10, 1, 1, 0, 0x81])))
    # A full IVV declaring 127 one-byte components, holding 3.
    _write(
        "reply_full_ivv_overruns_frame",
        _frame(payload[:ivv_at] + bytes([0x00, 0x7F, 3, 0, 7])),
    )


if __name__ == "__main__":
    main()
