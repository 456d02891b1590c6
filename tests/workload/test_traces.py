"""Unit tests for trace record/save/load/replay."""

import pytest

from repro.cluster.simulation import ClusterSimulation
from repro.experiments.common import make_factory, make_items
from repro.substrate.operations import Append, Put
from repro.workload.generators import UpdateEvent
from tests.workloads import UniformWorkload
from repro.workload.traces import Trace

ITEMS = make_items(10)


class TestRecording:
    def test_from_events(self):
        events = UniformWorkload(ITEMS, 2, seed=0).generate(5)
        trace = Trace.from_events(events)
        assert len(trace) == 5
        assert list(trace) == events

    def test_non_put_rejected(self):
        trace = Trace()
        with pytest.raises(TypeError):
            trace.record(UpdateEvent(0, ITEMS[0], Append(b"x")))


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        events = UniformWorkload(ITEMS, 3, seed=4).generate(20)
        trace = Trace.from_events(events)
        path = tmp_path / "trace.txt"
        trace.save(path)
        loaded = Trace.load(path)
        assert list(loaded) == events

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.txt"
        Trace().save(path)
        assert len(Trace.load(path)) == 0

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 only-two-fields\n")
        with pytest.raises(ValueError):
            Trace.load(path)

    def test_binary_values_survive_roundtrip(self, tmp_path):
        trace = Trace()
        trace.record(UpdateEvent(0, ITEMS[0], Put(bytes(range(256)))))
        path = tmp_path / "bin.txt"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.events[0].op.value == bytes(range(256))


class TestReplay:
    def make_sim(self):
        return ClusterSimulation(make_factory("dbvv", 3, ITEMS), 3, ITEMS, seed=0)

    def test_upfront_replay_applies_all_events(self):
        trace = Trace.from_events(
            [UpdateEvent(0, ITEMS[0], Put(b"a")), UpdateEvent(1, ITEMS[1], Put(b"b"))]
        )
        sim = self.make_sim()
        rounds = trace.replay(sim, updates_per_round=0)
        assert rounds == []
        assert sim.nodes[0].read(ITEMS[0]) == b"a"
        assert sim.nodes[1].read(ITEMS[1]) == b"b"

    def test_paced_replay_interleaves_rounds(self):
        events = [
            UpdateEvent(0, ITEMS[k % len(ITEMS)], Put(f"v{k}".encode()))
            for k in range(10)
        ]
        sim = self.make_sim()
        rounds = Trace.from_events(events).replay(sim, updates_per_round=3)
        assert len(rounds) == 4  # ceil(10 / 3)
        assert sim.round_no == 4

    def test_negative_pacing_rejected(self):
        with pytest.raises(ValueError):
            Trace().replay(self.make_sim(), updates_per_round=-1)

    def test_identical_trace_means_identical_ground_truth(self):
        events = UniformWorkload(ITEMS, 3, seed=7).generate(30)
        trace = Trace.from_events(events)
        sim_a, sim_b = self.make_sim(), self.make_sim()
        trace.replay(sim_a)
        trace.replay(sim_b)
        assert all(
            sim_a.ground_truth.value(i) == sim_b.ground_truth.value(i)
            for i in ITEMS
        )
