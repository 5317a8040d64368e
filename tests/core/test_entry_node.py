"""Unit tests for entries, index nodes and data pages."""

import pytest

from repro.errors import DuplicateKeyError, TreeInvariantError
from repro.core.entry import Entry
from repro.core.node import DataPage, IndexNode
from repro.geometry.region import RegionKey


def key(bits: str) -> RegionKey:
    return RegionKey.from_bits(bits)


class TestEntry:
    def test_fields(self):
        e = Entry(key("01"), 2, 7)
        assert e.key == key("01")
        assert e.level == 2
        assert e.page == 7

    def test_rejects_negative_level(self):
        with pytest.raises(TreeInvariantError):
            Entry(key("0"), -1, 1)

    def test_native_check(self):
        e = Entry(key("0"), 2, 1)
        assert e.is_native_in(3)
        assert not e.is_native_in(4)

    def test_matches_path(self):
        e = Entry(key("01"), 0, 1)
        assert e.matches_path(0b0111, 4)
        assert not e.matches_path(0b1011, 4)

    def test_matches_path_shorter_than_key(self):
        e = Entry(key("0110"), 0, 1)
        assert not e.matches_path(0b01, 2)

    def test_repr(self):
        assert "level=1" in repr(Entry(key("0"), 1, 9))


class TestIndexNode:
    def test_native_vs_guard_classification(self):
        node = IndexNode(3)
        native = Entry(key("0"), 2, 1)
        guard = Entry(key("0"), 0, 2)
        node.add(native)
        node.add(guard)
        assert node.natives() == [native]
        assert node.guards() == [guard]
        assert node.native_count() == 1
        assert node.guard_count() == 1
        assert len(node) == 2

    def test_rejects_entry_above_native_level(self):
        node = IndexNode(2)
        with pytest.raises(TreeInvariantError):
            node.add(Entry(key("0"), 2, 1))

    def test_rejects_index_level_zero(self):
        with pytest.raises(TreeInvariantError):
            IndexNode(0)

    def test_rejects_duplicate_key_same_level(self):
        node = IndexNode(2)
        node.add(Entry(key("0"), 1, 1))
        with pytest.raises(TreeInvariantError):
            node.add(Entry(key("0"), 1, 2))

    def test_constructor_rejects_duplicate_key_same_level(self):
        with pytest.raises(TreeInvariantError):
            IndexNode(2, [Entry(key("0"), 1, 1), Entry(key("0"), 1, 2)])

    def test_same_key_different_levels_allowed(self):
        node = IndexNode(3)
        node.add(Entry(key("0"), 2, 1))
        node.add(Entry(key("0"), 1, 2))
        assert len(node) == 2

    def test_remove(self):
        node = IndexNode(2)
        e = Entry(key("0"), 1, 1)
        node.add(e)
        node.remove(e)
        assert len(node) == 0
        with pytest.raises(TreeInvariantError):
            node.remove(e)

    def test_find(self):
        node = IndexNode(2)
        e = Entry(key("01"), 1, 1)
        node.add(e)
        assert node.find(key("01"), 1) is e
        assert node.find(key("01"), 0) is None
        assert node.find(key("00"), 1) is None

    def test_best_native_match_longest_prefix(self):
        node = IndexNode(2)
        short = Entry(key("0"), 1, 1)
        long = Entry(key("011"), 1, 2)
        node.add(short)
        node.add(long)
        path = 0b01110000
        assert node.best_native_match(path, 8) is long
        assert node.best_native_match(0b01000000, 8) is short
        assert node.best_native_match(0b10000000, 8) is None

    def test_matching_guards(self):
        node = IndexNode(3)
        g1 = Entry(key("0"), 0, 1)
        g2 = Entry(key("01"), 1, 2)
        node.add(g1)
        node.add(g2)
        node.add(Entry(key("0"), 2, 3))
        matches = node.matching_guards(0b01110000, 8)
        assert set(map(id, matches)) == {id(g1), id(g2)}
        assert node.matching_guards(0b10000000, 8) == []

    def test_entries_of_level(self):
        node = IndexNode(3)
        node.add(Entry(key("0"), 2, 1))
        node.add(Entry(key("00"), 1, 2))
        node.add(Entry(key("01"), 1, 3))
        assert len(list(node.entries_of_level(1))) == 2
        assert len(list(node.entries_of_level(0))) == 0


class TestDataPage:
    def test_insert_get_delete(self):
        page = DataPage()
        page.insert(0b0101, (0.3, 0.4), "v")
        assert page.get(0b0101) == ((0.3, 0.4), "v")
        assert len(page) == 1
        assert page.delete(0b0101) == ((0.3, 0.4), "v")
        assert len(page) == 0
        assert page.get(0b0101) is None

    def test_duplicate_raises(self):
        page = DataPage()
        page.insert(1, (0.1,), "a")
        with pytest.raises(DuplicateKeyError):
            page.insert(1, (0.1,), "b")

    def test_replace(self):
        page = DataPage()
        page.insert(1, (0.1,), "a")
        page.insert(1, (0.1,), "b", replace=True)
        assert page.get(1) == ((0.1,), "b")
        assert len(page) == 1

    def test_paths(self):
        page = DataPage()
        page.insert(1, (0.1,), None)
        page.insert(2, (0.2,), None)
        assert set(page.paths()) == {1, 2}
