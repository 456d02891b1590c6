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

from repro.errors import WireFormatError
from repro.wire.codec import MAX_FRAME_LEN, WireCodec

CORPUS = Path(__file__).parent / "corpus"


def _load(path: Path) -> bytes:
    return bytes.fromhex("".join(path.read_text().split()))


def _corpus_files() -> list[Path]:
    return sorted(CORPUS.glob("*.hex"))


def test_corpus_is_present():
    # The corpus only protects anything while it exists; a refactor that
    # drops the directory must fail loudly.
    assert len(_corpus_files()) >= 18


@pytest.mark.parametrize("path", _corpus_files(), ids=lambda p: p.stem)
def test_malformed_frame_is_rejected(path):
    frame = _load(path)
    with pytest.raises(WireFormatError):
        WireCodec(delta_vv=True).decode(0, 1, frame)


def test_over_cap_length_prefix_rejected_without_allocation():
    """A ten-byte frame claiming a 2^60-byte payload must cost nothing:
    the cap check runs before anything is sized from the prefix."""
    frame = _load(CORPUS / "over_cap_length_prefix.hex")
    assert len(frame) < 16
    tracemalloc.start()
    try:
        with pytest.raises(WireFormatError, match="exceeds the"):
            WireCodec().decode(0, 1, frame)
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
            WireCodec().decode(0, 1, frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_retired_reply_id_is_unknown_not_half_read():
    """A v1 reply — honest or nested 3000 deep — stops at its type id."""
    for name in ("reply_v1_parent_written", "nested_reply_v1"):
        with pytest.raises(WireFormatError, match="unknown wire message type id 4"):
            WireCodec().decode(1, 0, _load(CORPUS / f"{name}.hex"))


def test_nested_reply_is_refused_at_the_first_level():
    with pytest.raises(WireFormatError, match="reply item has type id 9"):
        WireCodec().decode(1, 0, _load(CORPUS / "nested_reply.hex"))


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
