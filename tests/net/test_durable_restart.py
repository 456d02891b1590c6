"""Durable restart: a killed ``repro.net`` process recovers from disk.

The acceptance scenario for the durable substrate's networked side: a
node that acknowledged updates, was killed with SIGKILL (no checkpoint,
no clean close), and was restarted from the same ``--data-dir`` must
come back with exactly its pre-kill protocol state and re-converge with
the cluster through ordinary anti-entropy.
"""

import socket

import pytest

from repro.net.harness import LocalCluster
from tests.net.test_node import _framed

ITEMS = ("a", "b")
#: 64 items × 1.5 KiB: one adopting pull journals ≈ 97 KiB, past the
#: journal's 64 KiB floor for folding a WAL that outweighs its checkpoint.
LARGE_ITEMS = tuple(f"k{index:02d}" for index in range(64))
#: One pipelined put per item: fewer records than ``checkpoint_every``
#: (256), so the restart replays every one of them from the WAL.
PIPELINED_ITEMS = tuple(f"p{index:03d}" for index in range(240))


@pytest.fixture()
def durable_cluster(tmp_path):
    cluster = LocalCluster(
        3,
        ITEMS,
        tmp_path / "logs",
        seed=11,
        data_dir=tmp_path / "data",
    )
    with cluster as running:
        yield running


class TestKillRestart:
    def test_killed_node_recovers_its_acknowledged_state(self, durable_cluster):
        cluster = durable_cluster
        cluster.client(0).put("a", b"first")
        cluster.client(1).sync(0)
        cluster.client(1).put("b", b"second")
        before = cluster.client(1).status()
        assert before["durable"]["wal_records"] >= 2

        cluster.kill(1)
        # The rest of the cluster keeps serving while node 1 is down.
        cluster.client(0).put("a", b"third")

        cluster.restart(1)
        after = cluster.client(1).status()
        # Exact pre-kill protocol state: store, IVVs, DBVV.
        assert after["store"] == before["store"]
        assert after["ivvs"] == before["ivvs"]
        assert after["dbvv"] == before["dbvv"]
        # It really came off the disk, not out of thin air.
        assert after["durable"]["records_replayed"] >= 2

        # ...and re-converges through ordinary anti-entropy.
        cluster.client(1).sync(0)
        assert cluster.client(1).get("a") == b"third"
        assert cluster.client(1).get("b") == b"second"
        cluster.client(2).sync(1)
        assert cluster.client(2).get("b") == b"second"

    def test_journal_directories_exist_per_node(self, durable_cluster):
        cluster = durable_cluster
        cluster.client(0).put("a", b"present")
        assert (cluster.data_dir / "node-0" / "wal.log").exists()

    def test_clean_shutdown_folds_the_wal_into_a_checkpoint(
        self, durable_cluster
    ):
        cluster = durable_cluster
        cluster.client(2).put("b", b"checkpointed")
        client = cluster.client(2)
        client.shutdown()
        client.close()
        cluster.clients[2] = None
        cluster.processes[2].wait(timeout=10)

        cluster.restart(2)
        status = cluster.client(2).status()
        # The checkpoint absorbed the log: nothing left to replay.
        assert status["durable"]["records_replayed"] == 0
        assert status["store"]["b"] == b"checkpointed".hex()

    def test_status_reports_the_fold_gauges(self, durable_cluster):
        cluster = durable_cluster
        cluster.client(0).put("a", b"gauged")
        durable = cluster.client(0).status()["durable"]
        wal = cluster.data_dir / "node-0" / "wal.log"
        assert durable["wal_bytes_since_checkpoint"] == wal.stat().st_size > 0
        assert durable["checkpoint_bytes"] == 0  # none written yet


class TestPipelinedBatch:
    def test_every_ack_of_a_pipelined_batch_survives_a_kill(self, tmp_path):
        """Acks of pipelined puts leave a journaled node in batches; each
        one still means its put was on disk before the SIGKILL."""
        values = {
            name: f"v{index}".encode() * 3
            for index, name in enumerate(PIPELINED_ITEMS)
        }
        puts = [
            {"op": "put", "item": name, "value": value.hex()}
            for name, value in values.items()
        ]
        acks = _framed(*[{"ok": True}] * len(puts))
        with LocalCluster(
            2, PIPELINED_ITEMS, tmp_path / "logs", seed=13, data_dir=tmp_path / "data"
        ) as cluster:
            with socket.create_connection(
                ("127.0.0.1", cluster.client_ports[1]), timeout=30
            ) as raw:
                raw.sendall(_framed(*puts))
                with raw.makefile("rb") as replies:
                    assert replies.read(len(acks)) == acks
            before = cluster.client(1).status()
            assert before["durable"]["fsyncs"] >= len(puts)

            cluster.kill(1)
            cluster.restart(1)
            after = cluster.client(1).status()
            assert after["store"] == before["store"]
            assert after["ivvs"] == before["ivvs"]
            assert after["dbvv"] == before["dbvv"]
            assert after["durable"]["records_replayed"] >= len(puts)
            for name, value in values.items():
                assert cluster.client(1).get(name) == value


class TestWholeStoreAdoption:
    def test_adopting_node_folds_and_recovers_from_its_checkpoint(self, tmp_path):
        with LocalCluster(
            2, LARGE_ITEMS, tmp_path / "logs", seed=12, data_dir=tmp_path / "data"
        ) as cluster:
            for index, name in enumerate(LARGE_ITEMS):
                cluster.client(0).put(name, bytes([index]) * 1536)
            cluster.client(1).sync(0)
            before = cluster.client(1).status()
            assert before["durable"]["checkpoints"] == 1
            assert before["durable"]["wal_bytes_since_checkpoint"] == 0
            assert before["durable"]["checkpoint_bytes"] > 64 * 1024

            cluster.kill(1)
            cluster.restart(1)
            after = cluster.client(1).status()
            assert after["durable"]["records_replayed"] == 0
            assert after["durable"]["checkpoint_bytes"] == before["durable"]["checkpoint_bytes"]
            assert after["store"] == before["store"]
            assert after["ivvs"] == before["ivvs"]
            assert after["dbvv"] == before["dbvv"]
