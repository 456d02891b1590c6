"""Codec microbench driver: emits ``BENCH_wire.json`` and enforces the
wire-format acceptance floors.

The timed fixtures give pytest-benchmark numbers for the inner codec
loops; ``TestWireReport`` runs the harness (wire_harness.py) end to end
and asserts the two headline figures — ≥25% delta-VV savings on an
E8-style quiescent session at n=32, and ≥50 MB/s encode+decode
round-trip on propagating session frames.  The throughput floor is only
asserted outside smoke mode (CI smoke runs too few frames to time
reliably); the savings figure is deterministic and always checked.
"""

import pytest

from repro.core.messages import PropagationRequest
from repro.core.version_vector import VersionVector
from repro.wire import WireCodec


@pytest.fixture(scope="module")
def session_frame_messages():
    import wire_harness

    return wire_harness._reply_frame_messages()


def test_bench_encode_session_frames(benchmark, session_frame_messages):
    import wire_harness

    codec = WireCodec(wire_harness.FRAME_SCHEMA, delta_vv=False)

    def encode_all():
        for message in session_frame_messages:
            codec.encode(0, 1, message)

    benchmark(encode_all)


def test_bench_roundtrip_session_frames(benchmark, session_frame_messages):
    import wire_harness

    codec = WireCodec(wire_harness.FRAME_SCHEMA)

    def roundtrip_all():
        for message in session_frame_messages:
            codec.decode(0, 1, codec.encode(0, 1, message))

    benchmark(roundtrip_all)


def test_bench_delta_request_quiescent(benchmark):
    codec = WireCodec(())
    message = PropagationRequest(1, VersionVector.from_counts(list(range(32))))
    codec.decode(0, 1, codec.encode(0, 1, message))  # prime both caches
    benchmark(lambda: codec.decode(0, 1, codec.encode(0, 1, message)))


def test_stage_profile_reports_the_five_stages():
    """``wire_harness.py --stages`` (printed only, nothing gated): every
    stage of the replayed pull is reported, per shipped item, and took
    some time."""
    import wire_harness

    (row,) = wire_harness.bench_stages(shapes=((32, 16, 2),))
    assert row["items"] == 32 and row["value_bytes"] == 16
    assert [stage for stage in row if stage in wire_harness.STAGES] == [
        "respond", "encode", "decode", "conclude", "wal-record",
    ]
    assert all(row[stage] > 0 for stage in wire_harness.STAGES)


def test_stage_profile_reports_checkpoint_write_and_load():
    """``--stages`` also prints the checkpoint rows: write and load, per
    item, beside the checkpoint's size."""
    import wire_harness

    rows = wire_harness.bench_checkpoint(shape=(64, 8, 1))
    assert [row["stage"] for row in rows] == ["checkpoint-write", "checkpoint-load"]
    assert all(row["binary"] > 0 for row in rows)
    assert rows[0]["binary_bytes"] > 64 * 8


def test_stage_profile_reports_wal_replay_beside_checkpoint_load():
    """``--stages`` prints a ``wal-replay`` row: one whole-store accept
    record decoded, validated and applied, per item, in the checkpoint
    rows' units."""
    import wire_harness

    row = wire_harness.bench_wal_replay(shape=(64, 8, 1))
    assert row["stage"] == "wal-replay"
    assert row["items"] == 64 and row["binary"] > 0 and row["record_bytes"] > 64 * 8


class TestWireReport:
    def test_wire_harness_emits_report(self):
        import wire_harness

        report = wire_harness.run_all()
        path = wire_harness.write_report(report)
        assert path.exists()

        session = report["session_bytes"]
        assert session["n_nodes"] == 32
        # The acceptance floor: delta-compressed vectors save >= 25% of
        # quiescent-session bytes.  (Measured ~75%: the request's
        # 32-component vector collapses to a 2-byte delta form.)
        assert session["quiescent"]["savings_pct"] >= 25.0
        assert session["propagating"]["savings_pct"] >= 0.0
        # Session 0 ships full vectors in both arms.
        assert session["quiescent"]["first_session_bytes"] > (
            session["quiescent"]["delta_vv_bytes_per_session"]
        )

        sim = report["simulation"]
        # Encoded mode counts frame bytes; the same deterministic run in
        # default mode charges the model.  Both arms exist and the
        # encoded arm records its own drift.
        assert sim["encoded_bytes_sent"] > 0
        assert sim["modelled_bytes_sent"] == sim["default_mode_bytes_sent"]
        # Varints + delta vectors undercut the word-per-field model.
        assert sim["encoded_bytes_sent"] < sim["modelled_bytes_sent"]

        throughput = report["throughput"]
        assert throughput["small_frames_per_sec"] > 0
        if not report["smoke"]:
            # Measured ~200+ MB/s; 50 leaves margin for slow runners
            # while still catching an accidentally quadratic encoder.
            assert throughput["session_frames"]["roundtrip_mb_s"] >= 50.0
