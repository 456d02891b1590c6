"""The reply codec against frames pinned before its rewrite.

``golden/replies.hex`` holds 64 ``PropagationReply`` frames as the
field-by-field codec wrote them (see ``golden/_regen.py`` for the
cases).  The reply codec must still write each of those replies to
exactly those bytes, and read each frame back to an equal reply: the
v3 reply format is frozen while ``PROTOCOL_VERSION`` is 3.

``golden/checkpoint.hex`` pins one checkpoint file the same way (see
``golden/_regen_checkpoint.py`` for the node it holds): the node must
still encode to those bytes, and the bytes must load back to it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.durable.checkpoint import encode_checkpoint, load_node
from repro.net.framing import PROTOCOL_VERSION
from repro.wire.codec import WireCodec
from tests.node_state import node_state

GOLDEN = Path(__file__).parent / "golden"


def _regen_module(name):
    spec = importlib.util.spec_from_file_location(f"_golden{name}", GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[f"_golden{name}"] = module
    spec.loader.exec_module(module)
    return module


REGEN = _regen_module("_regen")
CHECKPOINT = _regen_module("_regen_checkpoint")
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


def test_checkpoint_encodes_to_its_pinned_bytes():
    pinned = (GOLDEN / "checkpoint.hex").read_text().strip()
    assert CHECKPOINT.encode().hex() == pinned


def test_pinned_checkpoint_loads_to_its_node():
    pinned = bytes.fromhex((GOLDEN / "checkpoint.hex").read_text())
    lsn, loaded = load_node(pinned)
    node = CHECKPOINT.node()
    assert lsn == CHECKPOINT.LSN
    assert node_state(loaded) == node_state(node)
    assert loaded.content_digest == node.content_digest
    assert bytes(encode_checkpoint(lsn, loaded)) == pinned
