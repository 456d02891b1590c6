"""Replay the checked-in malformed-frame corpus.

Each ``corpus/*.hex`` file is a frame a hostile or corrupted peer could
send; every one must be rejected with ``WireFormatError`` — never
accepted, never a different exception, never a hang or an allocation
sized from attacker bytes.  See ``corpus/README.md`` for what each
frame corrupts and ``corpus/_regen.py`` to regenerate after a
deliberate format change.
"""

import tracemalloc
from pathlib import Path

import pytest

from repro.core.messages import PropagationRequest
from repro.core.version_vector import VersionVector
from repro.durable.records import decode_record, encode_accept
from repro.errors import WALError, WireFormatError
from repro.wire.codec import MAX_FRAME_LEN, WireCodec
from repro.wire.varint import read_uvarint

CORPUS = Path(__file__).parent / "corpus"
#: The item schema ``corpus/_regen.py`` writes the frames with.
SCHEMA = ("a", "b", "x")


def _load(path: Path) -> bytes:
    return bytes.fromhex("".join(path.read_text().split()))


def _corpus_files() -> list[Path]:
    return sorted(CORPUS.glob("*.hex"))


def test_corpus_is_present():
    # The corpus only protects anything while it exists; a refactor that
    # drops the directory must fail loudly.
    assert len(_corpus_files()) >= 24


@pytest.mark.parametrize("path", _corpus_files(), ids=lambda p: p.stem)
def test_malformed_frame_is_rejected(path):
    frame = _load(path)
    with pytest.raises(WireFormatError):
        WireCodec(SCHEMA).decode(frame)


def test_over_cap_length_prefix_rejected_without_allocation():
    """A ten-byte frame claiming a 2^60-byte payload must cost nothing:
    the cap check runs before anything is sized from the prefix."""
    frame = _load(CORPUS / "over_cap_length_prefix.hex")
    assert len(frame) < 16
    tracemalloc.start()
    try:
        with pytest.raises(WireFormatError, match="exceeds the"):
            WireCodec(SCHEMA).decode(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The claimed size is ~10^18 bytes; a megabyte of slack is plenty.
    assert peak < 1 << 20


def test_over_cap_count_rejected_without_allocation():
    frame = _load(CORPUS / "over_cap_count.hex")
    tracemalloc.start()
    try:
        with pytest.raises(WireFormatError, match="element count"):
            WireCodec(SCHEMA).decode(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_retired_reply_id_is_unknown_not_half_read():
    """A v1 reply — honest or nested 3000 deep — stops at its type id."""
    for name in ("reply_v1_parent_written", "nested_reply_v1"):
        with pytest.raises(WireFormatError, match="unknown wire message type id 4"):
            WireCodec(SCHEMA).decode(_load(CORPUS / f"{name}.hex"))


def test_retired_v2_reply_id_is_unknown():
    with pytest.raises(WireFormatError, match="unknown wire message type id 9"):
        WireCodec(SCHEMA).decode(_load(CORPUS / "reply_v2_parent_written.hex"))


def test_nested_reply_is_refused_at_the_first_level():
    with pytest.raises(WireFormatError, match="reply item has payload tag 10"):
        WireCodec(SCHEMA).decode(_load(CORPUS / "nested_reply.hex"))


def test_a_delta_past_64_bits_is_refused():
    """``delta_vv_overflows_u64`` adds 1 to a DBVV component the link's
    previous request left at 2**64 - 1."""
    primer = PropagationRequest(1, VersionVector.from_counts((2**64 - 1, 0, 0)))
    sender, receiver = WireCodec(SCHEMA), WireCodec(SCHEMA)
    receiver.decode(sender.encode(primer))
    with pytest.raises(WireFormatError, match="past the 64-bit range"):
        receiver.decode(_load(CORPUS / "delta_vv_overflows_u64.hex"))


def test_item_past_the_schema_is_refused():
    with pytest.raises(WireFormatError, match="past the 3-item schema"):
        WireCodec(SCHEMA).decode(_load(CORPUS / "item_past_schema.hex"))


def test_a_delta_ivv_in_a_reply_is_refused_by_its_tag():
    with pytest.raises(WireFormatError, match="delta version vector inside"):
        WireCodec(SCHEMA).decode(_load(CORPUS / "reply_delta_ivv.hex"))


#: The frames that end (or claim more than they hold) inside the reply
#: decoder's inline loop rather than in a Decoder primitive.
REPLY_LOOP_BOUNDS = (
    "reply_ends_in_value",
    "reply_ends_in_full_ivv",
    "reply_ends_in_item_position",
    "reply_full_ivv_overruns_frame",
)


@pytest.mark.parametrize("name", REPLY_LOOP_BOUNDS)
def test_a_reply_cut_short_is_a_wire_format_error_not_an_index_error(name):
    with pytest.raises(WireFormatError, match="truncated"):
        WireCodec(SCHEMA).decode(_load(CORPUS / f"{name}.hex"))


@pytest.mark.parametrize("name", REPLY_LOOP_BOUNDS)
def test_a_journaled_reply_cut_short_is_a_wal_error(name):
    frame = _load(CORPUS / f"{name}.hex")
    _length, start = read_uvarint(frame, 0)
    body = bytes(encode_accept(7, frame[start:]))
    with pytest.raises(WALError, match="failed to decode"):
        decode_record(WireCodec(SCHEMA), body)


def test_corpus_frames_match_their_regeneration():
    """The regen script and the checked-in files must agree — catches a
    format change that forgot to regenerate (or hand-edited files)."""
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location(
        "_corpus_regen", CORPUS / "_regen.py"
    )
    module = importlib.util.module_from_spec(spec)
    before = {p.name: p.read_bytes() for p in _corpus_files()}
    try:
        spec.loader.exec_module(module)
        module.main()
        after = {p.name: p.read_bytes() for p in _corpus_files()}
        assert before == after
    finally:
        # Restore whatever was checked in, even if the assert failed.
        for name, blob in before.items():
            (CORPUS / name).write_bytes(blob)
        sys.modules.pop("_corpus_regen", None)


def test_max_frame_len_is_the_shared_cap():
    from repro.net.framing import MAX_FRAME_BYTES

    assert MAX_FRAME_BYTES == MAX_FRAME_LEN
