"""Regenerate the golden reply frames.

Run from the repo root, only after a deliberate change of the reply's
wire format (which also moves ``PROTOCOL_VERSION``)::

    PYTHONPATH=src python tests/wire/golden/_regen.py

``replies()`` builds the same seeded ``PropagationReply`` messages on
every run; ``replies.hex`` holds each one's frame exactly as the codec
wrote it when the file was last regenerated, one ``<case> <hex>`` line
per reply.  ``tests/wire/test_golden.py`` encodes each reply again and
must get the pinned bytes, and decodes each pinned frame back to an
equal reply, so a codec rewrite that moves one byte fails the suite.

The cases cover every shape the reply body has: whole-value and
op-chain payloads; dense, sparse and empty item vectors, and full ones
of 128 components or more; components of at least 128 and 2**14; item
positions past 127 (the schema has 300 names); values of 0, 127, 128
and 16 384 bytes; and empty tails beside tails whose seqno steps back.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.core.delta import DeltaPayload, OpChainEntry
from repro.core.messages import ItemPayload, PropagationReply
from repro.core.version_vector import VersionVector
from repro.substrate.operations import (
    Append,
    BytePatch,
    CounterAdd,
    Put,
    Truncate,
)
from repro.wire.codec import WireCodec

GOLDEN = Path(__file__).parent / "replies.hex"

#: 300 names, so item positions past 127 take two varint bytes.
SCHEMA = tuple(f"g{index:03d}" for index in range(300))

_SEED = 20261017


def _vv(*counts: int) -> VersionVector:
    return VersionVector.from_counts(counts)


def _sparse(n: int, present: dict[int, int]) -> VersionVector:
    return _vv(*(present.get(k, 0) for k in range(n)))


def _whole(position: int, value: bytes, ivv: VersionVector) -> ItemPayload:
    return ItemPayload(SCHEMA[position], value, ivv)


def _chain(position: int, ivv: VersionVector, *ops: OpChainEntry) -> DeltaPayload:
    return DeltaPayload(SCHEMA[position], ivv, ops)


def _climbing(names: list[str], start: int) -> tuple[tuple[str, int], ...]:
    return tuple((name, start + step) for step, name in enumerate(names))


def _hand_cases() -> list[tuple[str, PropagationReply]]:
    dense = _vv(3, 0, 7)
    ops = (
        OpChainEntry(0, 1, Put(b"abc")),
        OpChainEntry(1, 2, Append(b"\x00" * 130)),
        OpChainEntry(2, 200, BytePatch(300, b"zz")),
        OpChainEntry(0, 2, Truncate(1)),
        OpChainEntry(1, 3, CounterAdd(-5)),
        OpChainEntry(2, 1 << 20, CounterAdd(1 << 40)),
    )
    wide = _vv(*range(1, 131))
    return [
        ("empty", PropagationReply(0, (), ())),
        ("empty_tails", PropagationReply(2, ((), (), ()), ())),
        (
            "one_whole_value",
            PropagationReply(1, ((("g000", 5),), (), ()), (_whole(0, b"xy", dense),)),
        ),
        (
            "value_0_bytes",
            PropagationReply(1, ((("g001", 1),),), (_whole(1, b"", _vv(1)),)),
        ),
        (
            "value_127_bytes",
            PropagationReply(1, ((("g002", 1),),), (_whole(2, b"q" * 127, _vv(1)),)),
        ),
        (
            "value_128_bytes",
            PropagationReply(1, ((("g003", 1),),), (_whole(3, b"r" * 128, _vv(1)),)),
        ),
        (
            "value_16384_bytes",
            PropagationReply(
                0,
                ((("g004", 9),), (("g004", 2),)),
                (_whole(4, bytes(range(256)) * 64, _vv(9, 2)),),
            ),
        ),
        ("ivv_empty", PropagationReply(0, ((),), (_whole(5, b"v", _vv()),))),
        (
            "ivv_sparse",
            PropagationReply(0, (), (_whole(6, b"v", _sparse(200, {3: 1, 150: 2})),)),
        ),
        (
            "ivv_sparse_wide_gap_and_big_values",
            PropagationReply(
                0, (), (_whole(7, b"v", _sparse(300, {250: 200, 299: 1 << 14})),)
            ),
        ),
        ("ivv_full_130_wide", PropagationReply(0, (), (_whole(8, b"v", wide),))),
        (
            "ivv_full_128_wide_one_byte",
            PropagationReply(0, (), (_whole(19, b"v", _vv(*range(128))),)),
        ),
        (
            "ivv_components_128_and_16384",
            PropagationReply(0, (), (_whole(9, b"v", _vv(128, 1 << 14, 127, 0)),)),
        ),
        (
            "ivv_component_u64_max",
            PropagationReply(0, (), (_whole(10, b"v", _vv((1 << 64) - 1, 1)),)),
        ),
        (
            "ivv_all_zero",
            PropagationReply(0, (), (_whole(11, b"v", _vv(0, 0, 0, 0, 0)),)),
        ),
        (
            "positions_past_127",
            PropagationReply(
                3,
                ((("g128", 1), ("g299", 2)), (("g200", 7),)),
                (
                    _whole(128, b"a", _vv(1, 0)),
                    _whole(299, b"b", _vv(2, 0)),
                    _whole(200, b"c", _vv(0, 7)),
                ),
            ),
        ),
        ("source_past_127", PropagationReply(300, (), (_whole(12, b"s", dense),))),
        (
            "op_chain_every_op",
            PropagationReply(
                1,
                ((("g013", 2),), (("g013", 3),), (("g013", 200),)),
                (_chain(13, _vv(2, 3, 200), *ops),),
            ),
        ),
        (
            "op_chain_empty",
            PropagationReply(1, ((("g014", 4),),), (_chain(14, _vv(4)),)),
        ),
        (
            "op_chain_position_past_127",
            PropagationReply(
                1, ((("g255", 1),),), (_chain(255, _sparse(150, {0: 1}), ops[0]),)
            ),
        ),
        (
            "tail_steps_back",
            PropagationReply(
                0,
                ((("g015", 10), ("g016", 4), ("g017", 1 << 15), ("g015", 0)),),
                (
                    _whole(15, b"1", _vv(10)),
                    _whole(16, b"2", _vv(4)),
                    _whole(17, b"3", _vv(1 << 15)),
                ),
            ),
        ),
        (
            "tail_big_first_seqno",
            PropagationReply(
                0, ((("g018", 1 << 40),),), (_whole(18, b"4", _vv(1 << 40)),)
            ),
        ),
        (
            "many_payloads_and_records",
            PropagationReply(
                0,
                (_climbing([SCHEMA[k] for k in range(20, 220)], 1),),
                tuple(_whole(k, b"m", _vv(k - 19)) for k in range(20, 220)),
            ),
        ),
    ]


def _random_vv(rng: random.Random) -> VersionVector:
    n = rng.choice((0, 1, 2, 3, 5, 8, 127, 128, 140, 200))
    shape = rng.choice(("small", "big", "sparse", "zero"))
    if shape == "small":
        return _vv(*(rng.randrange(128) for _ in range(n)))
    if shape == "big":
        big = (0, 1, 127, 128, 300, 1 << 14, 1 << 21, 1 << 33)
        return _vv(*(rng.choice(big) for _ in range(n)))
    if shape == "sparse":
        keep = rng.sample(range(n), min(n, rng.randrange(4)))
        return _sparse(n, {k: rng.choice((1, 5, 127, 128, 1 << 14)) for k in keep})
    return _vv(*([0] * n))


def _random_op(rng: random.Random) -> OpChainEntry:
    kind = rng.randrange(5)
    origin, m = rng.randrange(4), rng.choice((1, 2, 127, 128, 1 << 14))
    if kind == 0:
        op = Put(rng.randbytes(rng.choice((0, 3, 128))))
    elif kind == 1:
        op = Append(rng.randbytes(rng.choice((1, 127))))
    elif kind == 2:
        op = BytePatch(rng.choice((0, 128)), rng.randbytes(2))
    elif kind == 3:
        op = Truncate(rng.choice((0, 200)))
    else:
        op = CounterAdd(rng.choice((-(1 << 20), -1, 0, 63, 64)))
    return OpChainEntry(origin, m, op)


def _random_reply(rng: random.Random) -> PropagationReply:
    positions = rng.sample(range(len(SCHEMA)), rng.choice((0, 1, 2, 5, 12, 40)))
    items: list[ItemPayload | DeltaPayload] = []
    for position in positions:
        ivv = _random_vv(rng)
        if rng.random() < 0.25:
            ops = tuple(_random_op(rng) for _ in range(rng.randrange(4)))
            items.append(_chain(position, ivv, *ops))
        else:
            size = rng.choice((0, 1, 16, 127, 128, 200))
            items.append(_whole(position, rng.randbytes(size), ivv))
    names = [payload.name for payload in items]
    tails = []
    for _origin in range(rng.choice((0, 1, 2, 3, 4))):
        shipped = rng.sample(names, rng.randrange(len(names) + 1)) if names else []
        seqno = rng.choice((0, 1, 100, 1 << 14))
        tail = []
        for name in shipped:
            seqno = max(0, seqno + rng.choice((1, 1, 1, 2, 64, 200, -3)))
            tail.append((name, seqno))
        tails.append(tuple(tail))
    return PropagationReply(rng.choice((0, 1, 3, 127, 128)), tuple(tails), tuple(items))


def replies() -> list[tuple[str, PropagationReply]]:
    """The golden cases, in file order: the hand-written shapes, then
    seeded random replies up to 64 in all."""
    cases = _hand_cases()
    rng = random.Random(_SEED)
    for index in range(64 - len(cases)):
        cases.append((f"random_{index:02d}", _random_reply(rng)))
    return cases


def encode(reply: PropagationReply) -> bytes:
    """``reply`` as one frame of a fresh codec."""
    return WireCodec(SCHEMA).encode(reply)


def main() -> None:
    lines = [f"{name} {encode(reply).hex()}" for name, reply in replies()]
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"{GOLDEN.name}: {len(lines)} frame(s), {GOLDEN.stat().st_size} byte(s)")


if __name__ == "__main__":
    main()
