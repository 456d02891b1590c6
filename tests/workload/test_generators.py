"""Unit tests for workload generators."""

import pytest

from repro.substrate.operations import Put
from repro.workload.generators import (
    ConflictingWorkload,
    HotColdWorkload,
    SingleWriterWorkload,
)
from tests.workloads import UniformWorkload

ITEMS = [f"item-{k:03d}" for k in range(50)]


class TestDeterminism:
    @pytest.mark.parametrize("cls", [UniformWorkload, HotColdWorkload, SingleWriterWorkload])
    def test_same_seed_same_stream(self, cls):
        a = cls(ITEMS, 4, seed=9).generate(50)
        b = cls(ITEMS, 4, seed=9).generate(50)
        assert a == b

    def test_different_seeds_differ(self):
        a = UniformWorkload(ITEMS, 4, seed=1).generate(50)
        b = UniformWorkload(ITEMS, 4, seed=2).generate(50)
        assert a != b


class TestPayloads:
    def test_payloads_are_unique_per_item_update(self):
        workload = UniformWorkload(ITEMS, 2, seed=0)
        events = workload.generate(200)
        values = [e.op.value for e in events]
        assert len(set(values)) == len(values)

    def test_payloads_honor_value_size(self):
        workload = UniformWorkload(ITEMS, 2, seed=0, value_size=128)
        event = workload.generate(1)[0]
        assert isinstance(event.op, Put)
        assert len(event.op.value) == 128


class TestValidation:
    def test_empty_item_set_rejected(self):
        with pytest.raises(ValueError):
            UniformWorkload([], 2)

    def test_bad_node_count_rejected(self):
        with pytest.raises(ValueError):
            UniformWorkload(ITEMS, 0)

    def test_bad_hot_fraction_rejected(self):
        with pytest.raises(ValueError):
            HotColdWorkload(ITEMS, 2, hot_fraction=0.0)
        with pytest.raises(ValueError):
            HotColdWorkload(ITEMS, 2, hot_weight=1.5)


class TestSkew:
    def test_hot_cold_concentrates_updates(self):
        workload = HotColdWorkload(
            ITEMS, 2, seed=3, hot_fraction=0.1, hot_weight=0.9
        )
        events = workload.generate(1000)
        hot = set(workload.hot_items)
        hot_hits = sum(1 for e in events if e.item in hot)
        assert hot_hits > 800

    def test_uniform_touches_most_items(self):
        workload = UniformWorkload(ITEMS, 2, seed=3)
        assert len({event.item for event in workload.generate(1000)}) > 40


class TestSingleWriter:
    def test_each_item_has_one_writer(self):
        workload = SingleWriterWorkload(ITEMS, 3, seed=0)
        events = workload.generate(500)
        writer_of: dict[str, int] = {}
        for event in events:
            assert writer_of.setdefault(event.item, event.node) == event.node
            assert event.node == workload.owner_of(event.item)


class TestConflicting:
    def test_pairs_target_same_item_different_nodes(self):
        workload = ConflictingWorkload(ITEMS, 4, seed=0)
        for event_a, event_b in workload.conflicting_pairs(20):
            assert event_a.item == event_b.item
            assert event_a.node != event_b.node

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            ConflictingWorkload(ITEMS, 1)

    def test_plain_events_unsupported(self):
        workload = ConflictingWorkload(ITEMS, 2, seed=0)
        with pytest.raises(NotImplementedError):
            workload.generate(1)


class TestReadWriteMix:
    def test_fraction_respected(self):
        from repro.workload.generators import ReadEvent, ReadWriteMix

        mix = ReadWriteMix(ITEMS, 3, seed=2, read_fraction=0.8)
        events = mix.generate(1000)
        reads = sum(1 for e in events if isinstance(e, ReadEvent))
        assert 700 < reads < 900

    def test_writes_are_single_writer(self):
        from repro.workload.generators import ReadWriteMix, UpdateEvent

        mix = ReadWriteMix(ITEMS, 3, seed=2, read_fraction=0.5)
        writer_of = {}
        for event in mix.generate(400):
            if isinstance(event, UpdateEvent):
                assert writer_of.setdefault(event.item, event.node) == event.node

    def test_bad_fraction_rejected(self):
        from repro.workload.generators import ReadWriteMix

        with pytest.raises(ValueError):
            ReadWriteMix(ITEMS, 2, read_fraction=1.5)

    def test_pure_read_stream(self):
        from repro.workload.generators import ReadEvent, ReadWriteMix

        mix = ReadWriteMix(ITEMS, 2, seed=3, read_fraction=1.0)
        assert all(isinstance(e, ReadEvent) for e in mix.generate(50))
