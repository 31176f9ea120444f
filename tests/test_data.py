"""Unit tests for the versioned data store."""

import pytest

from repro.errors import DataStoreError, VersionNotFoundError
from repro.workflow.data import TOMBSTONE, DataStore


class TestDataStore:
    def test_initial_values_are_version_zero(self):
        store = DataStore({"x": 10})
        assert store.read("x") == 10
        v = store.latest("x")
        assert v.number == 0 and v.writer is None

    def test_write_bumps_version(self):
        store = DataStore({"x": 1})
        assert store.write("x", 2, writer="t1") == 1
        assert store.write("x", 3, writer="t2") == 2
        assert store.read("x") == 3
        assert store.read_version("x") == (2, 3)

    def test_write_creates_unknown_object_at_version_zero(self):
        store = DataStore()
        assert store.write("new", 7, writer="t") == 0
        assert store.latest("new").writer == "t"

    def test_history_is_ordered(self):
        store = DataStore({"x": 0})
        store.write("x", 1)
        store.write("x", 2)
        assert [v.value for v in store.history("x")] == [0, 1, 2]

    def test_read_unknown_object_raises(self):
        with pytest.raises(DataStoreError):
            DataStore().read("ghost")

    def test_version_lookup(self):
        store = DataStore({"x": 0})
        store.write("x", 5, writer="w")
        assert store.version("x", 1).value == 5
        with pytest.raises(VersionNotFoundError):
            store.version("x", 9)

    def test_version_is_indexed_by_number(self):
        store = DataStore({"x": 0})
        for value in range(1, 5):
            store.write("x", value, writer=f"w{value}")
        for number in range(5):
            version = store.version("x", number)
            assert (version.number, version.value) == (number, number)

    @pytest.mark.parametrize("number", [-1, -2, 2, 100])
    def test_version_out_of_range_raises_version_not_found(self, number):
        store = DataStore({"x": 0})
        store.write("x", 1)
        with pytest.raises(VersionNotFoundError, match="no version"):
            store.version("x", number)

    def test_version_of_unknown_object_raises_data_store_error(self):
        store = DataStore({"x": 0})
        with pytest.raises(DataStoreError) as info:
            store.version("ghost", 0)
        assert not isinstance(info.value, VersionNotFoundError)
        assert "unknown data object" in str(info.value)

    def test_restore_writes_new_version(self):
        store = DataStore({"x": 10})
        store.write("x", 99, writer="bad")
        new_ver = store.restore("x", 0, writer="undo")
        assert new_ver == 2
        assert store.read("x") == 10
        # History preserved — recovery never rewrites it.
        assert [v.value for v in store.history("x")] == [10, 99, 10]

    def test_snapshot(self):
        store = DataStore({"x": 1, "y": 2})
        store.write("x", 3)
        assert store.snapshot() == {"x": 3, "y": 2}

    def test_names_and_contains(self):
        store = DataStore({"x": 1})
        assert "x" in store and "y" not in store
        assert list(store.names()) == ["x"]


class TestWriteJournal:
    def test_initial_load_is_not_journaled(self):
        store = DataStore({"x": 1, "y": 2})
        assert list(store.written()) == []

    def test_every_write_is_journaled_once_in_first_write_order(self):
        store = DataStore({"x": 1, "y": 2})
        store.write("y", 3, writer="t")
        store.write("new", 4)
        store.write("y", 5)
        store.restore("x", 0, writer="undo")
        assert list(store.written()) == ["y", "new", "x"]

    def test_drain_returns_and_empties_the_journal(self):
        store = DataStore({"x": 1})
        store.write("x", 2)
        written = store.written()
        assert store.drain_written() == ["x"]
        assert list(written) == [] and store.drain_written() == []
        store.write("x", 3)
        assert list(written) == ["x"]


class TestTombstone:
    def test_singleton(self):
        from repro.workflow.data import _Tombstone

        assert _Tombstone() is TOMBSTONE
        assert repr(TOMBSTONE) == "<TOMBSTONE>"
