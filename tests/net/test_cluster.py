"""Multi-process tests: LocalCluster spawns real ``python -m repro.net``
processes and drives them through the blocking client API."""

import socket
import time

import pytest

from repro.errors import NetworkSessionError
from repro.net.framing import MAGIC, PROTOCOL_VERSION
from repro.net.harness import LocalCluster
from repro.wire import Schema
from repro.wire.varint import write_uvarint

ITEMS = ("a", "b")


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    log_dir = tmp_path_factory.mktemp("cluster-logs")
    with LocalCluster(3, ITEMS, log_dir, seed=7) as running:
        yield running


class TestLocalCluster:
    def test_every_node_answers_ping_with_its_id(self, cluster):
        assert [cluster.client(k).ping() for k in range(3)] == [0, 1, 2]

    def test_put_propagates_through_explicit_syncs(self, cluster):
        cluster.client(0).put("a", b"spread me")
        cluster.client(1).sync(0)
        cluster.client(2).sync(1)
        assert cluster.client(2).get("a") == b"spread me"

    def test_status_reports_converged_state(self, cluster):
        cluster.client(0).put("b", b"status check")
        cluster.client(1).sync(0)
        status = cluster.client(1).status()
        assert status["store"]["b"] == b"status check".hex()
        assert status["conflicts"] == 0
        assert len(status["dbvv"]) == 3
        assert status["census"]["PropagationRequest"] >= 1

    def test_sync_against_identical_peer_reports_identical(self, cluster):
        cluster.client(1).sync(0)
        assert cluster.client(1).sync(0)["identical"] is True

    def test_unknown_item_is_a_clean_error(self, cluster):
        with pytest.raises(NetworkSessionError):
            cluster.client(0).get("no-such-item")

    def test_per_process_logs_exist(self, cluster):
        for node_id in range(3):
            log = cluster.log_dir / f"node-{node_id}.log"
            assert log.exists()
            assert "READY" in log.read_text()


class TestForeignFrames:
    def test_baseline_frame_is_refused_undecoded(self, cluster):
        """A replica's registry is the core protocol's (type ids 1-10):
        a well-formed Oracle push batch (id 17, retired with the
        baselines' codecs) on a peer connection is an *unknown type id*
        — dropped before any decode — and the node keeps serving
        everyone else."""
        schema = Schema(ITEMS)
        # The frame the baselines' codec wrote for _PushBatch(1, ()):
        # id 17 · source 1 · no records.
        frame = bytes([3, 17, 1, 0])
        preamble = bytearray()
        for field in (MAGIC, PROTOCOL_VERSION, 1):
            write_uvarint(preamble, field)
        preamble += schema.digest
        with socket.create_connection(
            ("127.0.0.1", cluster.peer_ports[0]), timeout=10.0
        ) as sock:
            sock.sendall(preamble)
            terminators = 0  # node 0's preamble: three uvarints...
            while terminators < 3:
                terminators += not sock.recv(1)[0] & 0x80
            digest = b""  # ...and its schema digest
            while len(digest) < len(schema.digest):
                digest += sock.recv(len(schema.digest) - len(digest))
            assert digest == schema.digest
            sock.sendall(frame)
            assert sock.recv(1) == b""  # dropped, no answer

        log = cluster.log_dir / "node-0.log"
        deadline = time.monotonic() + 10.0
        while "type id 17" not in log.read_text():
            assert time.monotonic() < deadline, log.read_text()
            time.sleep(0.02)
        text = log.read_text()
        assert "peer 1 connection dropped: unknown wire message type id 17" in text
        assert "_PushBatch" not in text

        assert cluster.client(0).ping() == 0
        cluster.client(0).put("a", b"still serving")
        cluster.client(1).sync(0)
        assert cluster.client(1).get("a") == b"still serving"
