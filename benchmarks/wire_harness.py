"""Microbenchmark for the binary wire codec (``repro.wire``).

Two measurements back the codec's two headline claims — that delta
compression shrinks the quiescent-session vectors the protocol leans on,
and that encoding is cheap enough to leave on everywhere:

* **throughput** — encode/decode round-trip speed on propagating-session
  frames (a ``PropagationReply`` carrying item payloads with multi-KiB
  values, the shape that dominates bytes on the wire) and, separately,
  on small metadata-only frames where per-field overhead dominates;
* **session bytes** — an E8-style quiescent and propagating session at
  n=32 encoded on one connection's ``WireCodec`` vs a fresh codec per
  session (what a redialled connection sends: the request's DBVV in
  full), reporting the percentage the cached DBVV delta saves.

``python benchmarks/wire_harness.py`` (or the driver test in
``test_wire.py``) writes ``BENCH_wire.json`` at the repo root.  Set
``REPRO_CODEC_SMOKE=1`` for the CI-sized run.

``python benchmarks/wire_harness.py --stages`` is a separate, printed-only
tool: a five-second per-stage profile of one burst pull replayed in
process (see :func:`bench_stages`), then the checkpoint's write and load
cost per item (:func:`bench_checkpoint`), then what a restart pays instead of the
checkpoint load when the WAL holds a whole-store adoption
(:func:`bench_wal_replay`).  It sizes a change to the pull path or the
checkpoint in seconds; ``benchmarks/pairs.py`` still decides whether it
is a gain.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.messages import (  # noqa: E402
    ItemPayload,
    PropagationReply,
    PropagationRequest,
    YouAreCurrent,
)
from repro.core.node import EpidemicNode  # noqa: E402
from repro.core.session import PullSession, respond  # noqa: E402
from repro.core.validate import validate_propagation_reply  # noqa: E402
from repro.core.version_vector import VersionVector  # noqa: E402
from repro.durable.checkpoint import encode_checkpoint, load_node  # noqa: E402
from repro.durable.records import (  # noqa: E402
    apply_record,
    decode_record,
    encode_accept,
    validate_record,
)
from repro.substrate.operations import Put  # noqa: E402
from repro.wire import Schema, WireCodec  # noqa: E402
from repro.wire.varint import read_uvarint  # noqa: E402

__all__ = [
    "REPORT_NAME",
    "bench_checkpoint",
    "bench_session_bytes",
    "bench_stages",
    "bench_throughput",
    "bench_wal_replay",
    "run_all",
    "smoke_mode",
    "write_report",
]

REPORT_NAME = "BENCH_wire.json"

# E8-style session shape: n=32 replicas that have each originated a few
# hundred updates, syncing every round so successive vectors differ in
# only a handful of components.
SESSION_NODES = 32
SESSION_SEQNO_SPREAD = 600
SESSION_SAMPLES = 40

FULL_THROUGHPUT_FRAMES = 400
SMOKE_THROUGHPUT_FRAMES = 60
PAYLOAD_VALUE_SIZE = 4096
PAYLOADS_PER_REPLY = 4

#: The items the throughput and session frames name, as both ends'
#: schema: an item travels as its position in it.
FRAME_SCHEMA = Schema(
    (*(f"item-{k:04d}" for k in range(PAYLOADS_PER_REPLY)), "hot-item")
)


def smoke_mode() -> bool:
    return os.environ.get("REPRO_CODEC_SMOKE", "") not in ("", "0")


def _vector(n: int, salt: int) -> VersionVector:
    """A deterministic dense vector with E8-scale components."""
    return VersionVector.from_counts(
        [(17 * k + 29 * salt) % SESSION_SEQNO_SPREAD + 1 for k in range(n)]
    )


def _bump(vector: VersionVector, k: int) -> VersionVector:
    """One epidemic step: a single component advanced by one."""
    counts = list(vector.as_tuple())
    counts[k % len(counts)] += 1
    return VersionVector.from_counts(counts)


def _value(size: int) -> bytes:
    return bytes(range(256)) * (size // 256) + b"\x00" * (size % 256)


def _reply_frame_messages() -> list[Any]:
    """One propagating session's frames: request in, loaded reply out."""
    ivv = _vector(SESSION_NODES, 3)
    payloads = tuple(
        ItemPayload(f"item-{k:04d}", _value(PAYLOAD_VALUE_SIZE), ivv)
        for k in range(PAYLOADS_PER_REPLY)
    )
    return [
        PropagationRequest(1, _vector(SESSION_NODES, 1)),
        PropagationReply(0, ((("item-0000", 7),),), payloads),
    ]


def bench_throughput(frames: int | None = None) -> dict[str, Any]:
    """Encode+decode round-trip speed, MB/s over frame bytes."""
    frames = frames or (
        SMOKE_THROUGHPUT_FRAMES if smoke_mode() else FULL_THROUGHPUT_FRAMES
    )
    messages = _reply_frame_messages()

    def run(redial: bool) -> dict[str, Any]:
        # Best of three timed passes: one pass is at the mercy of CPU
        # frequency ramp-up and scheduler noise, and the figure we want
        # to pin (and gate on in CI) is the codec's capability, not the
        # machine's mood during the first pass.
        best_elapsed = float("inf")
        total_bytes = 0
        for _ in range(3):
            codec = WireCodec(FRAME_SCHEMA)
            total_bytes = 0
            t0 = time.perf_counter()
            for _ in range(frames):
                if redial:
                    # A redialled connection: a fresh codec, whose empty
                    # request cache and pools are part of what is timed.
                    codec = WireCodec(FRAME_SCHEMA)
                for message in messages:
                    frame = codec.encode(message)
                    total_bytes += len(frame)
                    decoded = codec.decode(frame)
                assert decoded is not None
            best_elapsed = min(best_elapsed, time.perf_counter() - t0)
        return {
            "frames": frames * len(messages),
            "total_mb": round(total_bytes / 1e6, 3),
            "roundtrip_mb_s": round(total_bytes / 1e6 / best_elapsed, 1),
        }

    # Small-frame figure: metadata-only session traffic where per-field
    # overhead, not byte copying, is the cost.
    small = [PropagationRequest(1, _vector(SESSION_NODES, 1)), YouAreCurrent(1)]
    count = frames * 50
    small_elapsed = float("inf")
    for _ in range(3):
        small_codec = WireCodec(FRAME_SCHEMA)
        t0 = time.perf_counter()
        for i in range(count):
            message = small[i % 2]
            small_codec.decode(small_codec.encode(message))
        small_elapsed = min(small_elapsed, time.perf_counter() - t0)

    return {
        "payload_value_bytes": PAYLOAD_VALUE_SIZE,
        "payloads_per_reply": PAYLOADS_PER_REPLY,
        "session_frames": run(redial=False),
        "session_frames_full_vv": run(redial=True),
        "small_frames_per_sec": round(count / small_elapsed),
    }


def _session_bytes(redial: bool, propagating: bool) -> list[int]:
    """Per-session byte totals for SESSION_SAMPLES successive sessions,
    on one connection's codec or, with ``redial``, on a fresh codec per
    session.

    Between sessions the initiator's dbvv advances by one component —
    the steady-state shape E8 produces, where almost everything a peer
    already knows is re-stated in every vector.
    """
    dbvv = _vector(SESSION_NODES, 1)
    ivv = _vector(SESSION_NODES, 2)
    codec = WireCodec(FRAME_SCHEMA)
    totals = []
    for session in range(SESSION_SAMPLES):
        if redial:
            codec = WireCodec(FRAME_SCHEMA)
        size = 0
        request = PropagationRequest(1, dbvv)
        frame = codec.encode(request)
        codec.decode(frame)
        size += len(frame)
        if propagating:
            payload = ItemPayload("hot-item", b"v" * 24, ivv)
            reply = PropagationReply(1, ((("hot-item", 3),),), (payload,))
            frame = codec.encode(reply)
        else:
            frame = codec.encode(YouAreCurrent(1))
        codec.decode(frame)
        size += len(frame)
        totals.append(size)
        dbvv = _bump(dbvv, session)
        ivv = _bump(ivv, session)
    return totals


def bench_session_bytes() -> dict[str, Any]:
    """Quiescent and propagating session bytes, one connection's codec
    (the request DBVV as a delta) vs a codec per session (in full)."""

    def arm(propagating: bool) -> dict[str, Any]:
        delta = _session_bytes(redial=False, propagating=propagating)
        full = _session_bytes(redial=True, propagating=propagating)
        # Skip session 0: the delta arm has no cached base yet, so both
        # arms ship full vectors and the comparison is a wash.
        delta_steady = sum(delta[1:]) / (len(delta) - 1)
        full_steady = sum(full[1:]) / (len(full) - 1)
        return {
            "first_session_bytes": delta[0],
            "delta_vv_bytes_per_session": round(delta_steady, 1),
            "full_vv_bytes_per_session": round(full_steady, 1),
            "savings_pct": round(100 * (1 - delta_steady / full_steady), 1),
        }

    return {
        "n_nodes": SESSION_NODES,
        "sessions": SESSION_SAMPLES,
        "quiescent": arm(propagating=False),
        "propagating": arm(propagating=True),
    }


# -- the pull path, stage by stage (printed only) -----------------------------

STAGES = ("respond", "encode", "decode", "validate", "accept", "wal-record")
#: (items per burst, value bytes, timed repetitions): the burst shapes of
#: ``mem_small_kv``, ``durable_two_writers`` and ``propagate_bulk_values``.
STAGE_SHAPES = ((256, 16, 60), (256, 256, 60), (1024, 1024, 15))
_CALIBRATION_STEPS = 20_000


def _calibration_unit() -> float:
    """Seconds one *unit* takes right now: a fixed pure-Python loop,
    scaled so a unit is about a microsecond on the box the numbers in
    CHANGES.md were taken on.  Stage times are reported as multiples of
    it because this box's speed drifts by tens of percent within
    minutes; the ratio to a loop timed beside each repetition does not.
    """
    acc = 0
    started = time.perf_counter()
    for step in range(_CALIBRATION_STEPS):
        acc += step * step
    return (time.perf_counter() - started) / 1000


def bench_stages(
    shapes: tuple[tuple[int, int, int], ...] = STAGE_SHAPES,
) -> list[dict[str, Any]]:
    """Replay burst pulls in process — no sockets, no event loop — and
    attribute each to the six stages a ``repro.net`` pull runs between
    the two socket reads: ``respond`` (source builds the reply),
    ``encode``, ``decode``, ``validate`` and ``accept`` (the two halves
    of ``PullSession.conclude``: ``validate_propagation_reply``, then
    AcceptPropagation) and ``wal-record`` (the accept record a durable
    recipient journals: the payload it decoded, behind the record head).

    Every repetition rewrites all ``m`` items at the source and pulls
    them over the same pair of link codecs, as the second and later
    bursts of the real benchmark do (the first pull is the untimed
    warm-up); a reply's item vectors read no link cache.
    Each figure is the median over repetitions of stage time per
    shipped item divided by :func:`_calibration_unit` timed immediately
    before and after that repetition.
    """
    clock = time.perf_counter
    rows = []
    for m, value_bytes, repetitions in shapes:
        names = [f"k{index:05d}" for index in range(m)]
        source = EpidemicNode(0, 2, names)
        recipient = EpidemicNode(1, 2, names)
        schema = Schema(names)
        sender, receiver = WireCodec(schema), WireCodec(schema)
        samples: dict[str, list[float]] = {stage: [] for stage in STAGES}
        for repetition in range(repetitions + 1):
            value = bytes([repetition % 251]) * value_bytes
            for name in names:
                source.update(name, Put(value))
            request = PullSession(recipient).request()
            before = _calibration_unit()
            t0 = clock()
            reply = respond(source, request)
            t1 = clock()
            frame = sender.encode(reply)
            t2 = clock()
            decoded = receiver.decode(frame)
            t3 = clock()
            checked = validate_propagation_reply(decoded, recipient)
            t4 = clock()
            outcome, _intra = recipient.accept_propagation(checked)
            t5 = clock()
            _length, start = read_uvarint(frame, 0)
            encode_accept(repetition + 1, memoryview(frame)[start:])
            t6 = clock()
            unit = (before + _calibration_unit()) / 2
            assert len(outcome.adopted) == m
            if repetition == 0:
                continue
            marks = (t0, t1, t2, t3, t4, t5, t6)
            for stage, start_mark, stop_mark in zip(STAGES, marks, marks[1:]):
                samples[stage].append((stop_mark - start_mark) / m / unit)
        row: dict[str, Any] = {"items": m, "value_bytes": value_bytes}
        for stage in STAGES:
            row[stage] = round(statistics.median(samples[stage]), 3)
        rows.append(row)
    return rows


CHECKPOINT_STAGES = ("checkpoint-write", "checkpoint-load")
#: (items, value bytes, timed repetitions): ``durable_large_store``'s store.
CHECKPOINT_SHAPE = (8192, 64, 7)


def bench_checkpoint(
    shape: tuple[int, int, int] = CHECKPOINT_SHAPE,
) -> list[dict[str, Any]]:
    """Checkpoint CPU per item (``encode_checkpoint`` /
    ``repro.durable.checkpoint.load_node``), no file or fsync: n = 2,
    every item adopted from a peer and a quarter rewritten locally, so
    both log components are populated.  Each figure is the median over
    repetitions of time per item divided by :func:`_calibration_unit`
    timed beside it; the row also carries the checkpoint's size in bytes.
    """
    items, value_bytes, repetitions = shape
    names = [f"k{index:05d}" for index in range(items)]
    node = EpidemicNode(0, 2, names)
    peer = EpidemicNode(1, 2, names)
    for name in names:
        peer.update(name, Put(bytes(value_bytes)))
    node.pull_from(peer)
    for name in names[: items // 4]:
        node.update(name, Put(b"\x01" * value_bytes))
    binary = bytes(encode_checkpoint(1, node))
    runs = {
        "checkpoint-write": lambda: encode_checkpoint(1, node),
        "checkpoint-load": lambda: load_node(binary),
    }
    clock = time.process_time
    rows = []
    for stage in CHECKPOINT_STAGES:
        run = runs[stage]
        samples = []
        for _repetition in range(repetitions):
            before = _calibration_unit()
            started = clock()
            run()
            spent = clock() - started
            unit = (before + _calibration_unit()) / 2
            samples.append(spent / items / unit)
        rows.append({
            "stage": stage,
            "items": items,
            "value_bytes": value_bytes,
            "binary": round(statistics.median(samples), 3),
            "binary_bytes": len(binary),
        })
    return rows


def bench_wal_replay(
    shape: tuple[int, int, int] = CHECKPOINT_SHAPE,
) -> dict[str, Any]:
    """Recovery CPU per item for one accept record that hands a fresh
    replica a peer's whole store — ``decode_record``, ``validate_record``
    and ``apply_record``, no file — in the units of
    :func:`bench_checkpoint`.  Its ratio to the checkpoint-load row is
    what the journal's bytes trigger rests on: a WAL that
    outweighs its checkpoint replays slower than the checkpoint loads.
    """
    items, value_bytes, repetitions = shape
    names = [f"k{index:05d}" for index in range(items)]
    peer = EpidemicNode(1, 2, names)
    for name in names:
        peer.update(name, Put(bytes(value_bytes)))
    reply = respond(peer, PullSession(EpidemicNode(0, 2, names)).request())
    codec = WireCodec(names)
    body = bytes(encode_accept(1, codec.encode_payload(reply)))
    clock = time.process_time
    samples = []
    for _repetition in range(repetitions):
        node = EpidemicNode(0, 2, names)
        before = _calibration_unit()
        started = clock()
        _lsn, record = decode_record(codec, body)
        apply_record(node, validate_record(record, node))
        spent = clock() - started
        unit = (before + _calibration_unit()) / 2
        samples.append(spent / items / unit)
    return {
        "stage": "wal-replay",
        "items": items,
        "value_bytes": value_bytes,
        "binary": round(statistics.median(samples), 3),
        "record_bytes": len(body),
    }


def print_stages() -> None:
    print("units per shipped item (1 unit = the calibration loop / 1000, ~1 us)")
    print(f"{'burst':>14}  " + "  ".join(f"{stage:>10}" for stage in STAGES))
    for row in bench_stages():
        shape = f"{row['items']}x{row['value_bytes']}B"
        print(f"{shape:>14}  " + "  ".join(f"{row[stage]:>10.3f}" for stage in STAGES))
    rows = bench_checkpoint()
    first = rows[0]
    print(
        f"\nunits per item, checkpoint of {first['items']}x{first['value_bytes']}B, n=2 "
        f"({first['binary_bytes']} B)"
    )
    for row in rows:
        print(f"{row['stage']:>16}  {row['binary']:>10.3f}")
    replay = bench_wal_replay()
    print(
        f"\nunits per item, WAL replay of one {replay['items']}x{replay['value_bytes']}B "
        f"accept record ({replay['record_bytes']} B): decode + validate + apply"
    )
    versus = replay["binary"] / rows[-1]["binary"]
    print(f"{replay['stage']:>16}  {replay['binary']:>10.3f}  ({versus:.2f}x checkpoint-load)")


def run_all() -> dict[str, Any]:
    return {
        "benchmark": "wire-codec",
        "smoke": smoke_mode(),
        "throughput": bench_throughput(),
        "session_bytes": bench_session_bytes(),
    }


def write_report(report: dict[str, Any], path: Path | None = None) -> Path:
    path = path or Path(__file__).resolve().parent.parent / REPORT_NAME
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/wire_harness.py",
        description=f"Codec throughput and session bytes; writes {REPORT_NAME}.",
    )
    parser.add_argument(
        "--stages",
        action="store_true",
        help="print the per-stage profile of one burst pull instead (writes nothing)",
    )
    if parser.parse_args(argv).stages:
        print_stages()
        return
    report = run_all()
    path = write_report(report)
    session = report["throughput"]["session_frames"]
    quiescent = report["session_bytes"]["quiescent"]
    print(f"roundtrip: {session['roundtrip_mb_s']} MB/s over {session['total_mb']} MB")
    print(
        f"quiescent session (n={report['session_bytes']['n_nodes']}): "
        f"{quiescent['delta_vv_bytes_per_session']} B delta vs "
        f"{quiescent['full_vv_bytes_per_session']} B full "
        f"({quiescent['savings_pct']}% saved)"
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
