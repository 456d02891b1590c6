"""The reply codec against frames pinned before its rewrite.

``golden/replies.hex`` holds 64 ``PropagationReply`` frames as the
field-by-field codec wrote them (see ``golden/_regen.py`` for the
cases).  The reply codec must still write each of those replies to
exactly those bytes, and read each frame back to an equal reply: the
v3 reply format is frozen while ``PROTOCOL_VERSION`` is 3.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.net.framing import PROTOCOL_VERSION
from repro.wire.codec import WireCodec

GOLDEN = Path(__file__).parent / "golden"


def _regen_module():
    spec = importlib.util.spec_from_file_location("_golden_regen", GOLDEN / "_regen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["_golden_regen"] = module
    spec.loader.exec_module(module)
    return module


REGEN = _regen_module()
CASES = dict(REGEN.replies())
PINNED = dict(
    line.split(" ", 1)
    for line in (GOLDEN / "replies.hex").read_text().splitlines()
    if line
)


def test_every_case_is_pinned():
    assert len(CASES) == 64
    assert list(PINNED) == list(CASES)


def test_the_reply_format_is_still_version_3():
    assert PROTOCOL_VERSION == 3


@pytest.mark.parametrize("case", list(CASES))
def test_reply_encodes_to_its_pinned_frame(case):
    assert REGEN.encode(CASES[case]).hex() == PINNED[case]


@pytest.mark.parametrize("case", list(CASES))
def test_pinned_frame_decodes_to_its_reply(case):
    frame = bytes.fromhex(PINNED[case])
    assert WireCodec(REGEN.SCHEMA).decode(frame) == CASES[case]
