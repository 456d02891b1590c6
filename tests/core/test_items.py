"""Unit tests for data items and the item store."""

import pytest

from repro.core.items import DataItem, ItemStore
from repro.core.version_vector import VersionVector
from repro.errors import UnknownItemError


class TestDataItem:
    def test_fresh_item_state(self):
        item = DataItem("x", VersionVector.zero(3))
        assert item.value == b""
        assert item.ivv.as_tuple() == (0, 0, 0)
        assert not item.has_auxiliary
        assert not item.is_selected
        assert not item.in_conflict

    def test_current_value_prefers_auxiliary(self):
        item = DataItem("x", VersionVector.zero(2), b"regular")
        assert item.current_value() == b"regular"
        item.install_auxiliary(b"aux", VersionVector.from_counts([0, 1]))
        assert item.current_value() == b"aux"
        assert item.current_ivv().as_tuple() == (0, 1)

    def test_install_auxiliary_copies_the_ivv(self):
        item = DataItem("x", VersionVector.zero(2))
        ivv = VersionVector.from_counts([0, 1])
        item.install_auxiliary(b"aux", ivv)
        ivv.increment(0)
        assert item.aux_ivv.as_tuple() == (0, 1)

    def test_drop_auxiliary_restores_regular_view(self):
        item = DataItem("x", VersionVector.zero(2), b"regular")
        item.install_auxiliary(b"aux", VersionVector.from_counts([0, 1]))
        item.drop_auxiliary()
        assert not item.has_auxiliary
        assert item.current_value() == b"regular"
        assert item.current_ivv() is item.ivv

    def test_repr_mentions_auxiliary(self):
        item = DataItem("x", VersionVector.zero(2))
        assert "+aux" not in repr(item)
        item.install_auxiliary(b"a", VersionVector.zero(2))
        assert "+aux" in repr(item)


class TestItemStore:
    def test_registration_and_lookup(self):
        store = ItemStore(2, ["x", "y"])
        assert len(store) == 2
        assert "x" in store
        assert store["x"].name == "x"

    def test_duplicate_registration_rejected(self):
        store = ItemStore(2, ["x"])
        with pytest.raises(ValueError):
            store.register("x", VersionVector.zero(2))

    def test_unknown_item_raises(self):
        store = ItemStore(2, ["x"])
        with pytest.raises(UnknownItemError):
            store["nope"]
        assert store.get("nope") is None

    def test_iteration_yields_items(self):
        store = ItemStore(2, ["x", "y", "z"])
        assert sorted(item.name for item in store) == ["x", "y", "z"]
        assert set(store.names()) == {"x", "y", "z"}

    def test_register_with_initial_value(self):
        store = ItemStore(2)
        store.register("x", VersionVector.zero(2), b"seed")
        assert store["x"].value == b"seed"
