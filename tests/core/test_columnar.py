"""Unit tests of the columnar page layout (:mod:`repro.core.columnar`).

The differential property suite
(``tests/properties/test_columnar_equivalence.py``) proves whole-tree
equivalence with the object layout; these tests pin down the column
mechanics directly — sorted-order maintenance, contiguous block
extraction, guard/native column bookkeeping — plus the layout selection
plumbing on the tree and store.
"""

import random
from array import array

import pytest

from repro.core.columnar import (
    DEFAULT_LAYOUT,
    LAYOUTS,
    ColumnarDataPage,
    ColumnarIndexNode,
    locate_columnar,
)
from repro.core.descent import descend, locate
from repro.core.entry import Entry
from repro.core.node import DataPage, diff_records
from repro.core.tree import BVTree
from repro.errors import DuplicateKeyError, ReproError, TreeInvariantError
from repro.geometry.region import RegionKey
from repro.geometry.space import DataSpace
from repro.storage import BufferPool, PageStore
from repro.storage.durable import DurableStore


def make_page(records=(), ndim=2, path_bits=8):
    page = ColumnarDataPage(ndim, path_bits)
    for path, point, value in records:
        page.insert(path, point, value)
    return page


class TestColumnarDataPage:
    def test_insert_keeps_paths_sorted(self):
        page = make_page()
        for path in (9, 3, 200, 40, 7):
            page.insert(path, (0.1, 0.2), path)
        assert list(page.paths()) == [3, 7, 9, 40, 200]
        assert len(page) == 5

    def test_duplicate_raises_unless_replace(self):
        page = make_page([(5, (0.1, 0.2), "a")])
        with pytest.raises(DuplicateKeyError):
            page.insert(5, (0.1, 0.2), "b")
        page.insert(5, (0.3, 0.4), "b", replace=True)
        assert page.get(5) == ((0.3, 0.4), "b")
        assert len(page) == 1

    def test_get_delete_contains(self):
        page = make_page([(5, (0.1, 0.2), "a"), (9, (0.5, 0.6), "b")])
        assert 5 in page and 9 in page and 7 not in page
        assert page.get(7) is None
        assert page.delete(5) == ((0.1, 0.2), "a")
        assert 5 not in page
        with pytest.raises(KeyError):
            page.delete(5)
        assert list(page.paths()) == [9]

    def test_records_view_is_read_only_and_ordered(self):
        page = make_page([(9, (0.5, 0.6), "b"), (5, (0.1, 0.2), "a")])
        view = page.records
        assert list(view) == [5, 9]
        assert view[5] == ((0.1, 0.2), "a")
        with pytest.raises(TypeError):
            view[7] = ((0.0, 0.0), "c")

    def test_extract_block_is_a_contiguous_slice(self):
        # Paths 0b00xxxxxx .. 0b11xxxxxx; extract the '10' block.
        page = make_page(
            [(p, (p / 256, 0.0), p) for p in (10, 100, 130, 150, 180, 220)]
        )
        inner = page.extract_block(RegionKey(2, 0b10), path_bits=8)
        assert list(inner.paths()) == [130, 150, 180]
        assert list(page.paths()) == [10, 100, 220]
        assert inner.get(150) == ((150 / 256, 0.0), 150)

    def test_absorb_merges_disjoint_blocks(self):
        outer = make_page([(p, (0.0, 0.0), p) for p in (10, 220)])
        inner = make_page([(p, (0.0, 0.0), p) for p in (130, 150)])
        outer.absorb(inner)
        assert list(outer.paths()) == [10, 130, 150, 220]

    def test_fill_sorted_bulk_append(self):
        page = make_page()
        page.fill_sorted([3, 40], array("d", [3 / 256, 0.5, 40 / 256, 0.5]), [6, 80])
        page.fill_sorted([200], array("d", [200 / 256, 0.5]), [400])
        assert list(page.paths()) == [3, 40, 200]
        assert page.get(40) == ((40 / 256, 0.5), 80)
        reference = DataPage()
        reference.fill_sorted([3, 40], [3 / 256, 0.5, 40 / 256, 0.5], [6, 80])
        reference.fill_sorted([200], [200 / 256, 0.5], [400])
        reference.fill_sorted([], [], [])
        assert dict(page.records) == reference.records
        assert list(reference.records) == [3, 40, 200]

    def test_changes_since_a_clone(self):
        base = make_page([(p, (p / 256, 0.5), p) for p in (3, 40, 90, 200)])
        page = base.clone()
        assert page.changes_since(base) == ([], [])
        page.insert(7, (0.25, 0.25), "new")
        page.delete(90)
        page.insert(40, (0.75, 0.5), 40, replace=True)  # moved point
        page.insert(200, (200 / 256, 0.5), "other", replace=True)
        page.insert(3, (3 / 256, 0.5), 3, replace=True)  # same record
        assert page.changes_since(base) == (
            [
                (7, ((0.25, 0.25), "new")),
                (40, ((0.75, 0.5), 40)),
                (200, ((200 / 256, 0.5), "other")),
            ],
            [90],
        )

    def test_changes_since_matches_the_record_map_diff(self):
        # The column diff must agree with the object layout's record-map
        # diff over random insert / delete / replace mixes.
        rng = random.Random(5)
        for _ in range(200):
            base = make_page()
            for path in rng.sample(range(256), rng.randint(0, 14)):
                base.insert(path, (rng.random(), rng.random()), path % 3)
            page = base.clone()
            for _ in range(rng.randint(0, 4)):
                path = rng.randrange(256)
                if path in page and rng.random() < 0.5:
                    page.delete(path)
                else:
                    point = page.get(path) or ((rng.random(), 0.5), None)
                    value = rng.choice([point[1], path % 3, "v"])
                    page.insert(path, point[0], value, replace=True)
            assert page.changes_since(base) == diff_records(
                dict(base.records), dict(page.records)
            )


def make_node(entries=(), index_level=1, path_bits=8):
    return ColumnarIndexNode(
        index_level, entries, ndim=2, resolution=4, path_bits=path_bits
    )


class TestColumnarIndexNode:
    def test_add_remove_keep_columns_in_step(self):
        native = Entry(RegionKey(2, 0b10), 0, page=7)
        nested = Entry(RegionKey(4, 0b1011), 0, page=8)
        node = make_node([native, nested])
        assert node.native_count() == 2
        # Longest prefix wins for a path inside the nested block.
        assert node.best_native_match(0b10110001, 8) is nested
        assert node.best_native_match(0b10000001, 8) is native
        assert node.best_native_match(0b11000000, 8) is None
        node.remove(nested)
        assert node.native_count() == 1
        assert node.best_native_match(0b10110001, 8) is native

    def test_short_search_paths_skip_longer_natives(self):
        nested = Entry(RegionKey(4, 0b1011), 0, page=8)
        node = make_node([nested])
        # A 2-bit search path cannot match a 4-bit native key.
        assert node.best_native_match(0b10, 2) is None
        assert node.best_native_match(0b1011, 4) is nested

    def test_guard_columns_and_matching(self):
        node = make_node(index_level=2, path_bits=8)
        native = Entry(RegionKey(1, 0b0), 1, page=3)
        guard = Entry(RegionKey(2, 0b00), 0, page=4)
        node.add(native)
        node.add(guard)
        assert node.guard_count() == 1
        assert node.matching_guards(0b00110000, 8) == [guard]
        assert node.matching_guards(0b01110000, 8) == []
        # Guards longer than the search path never match.
        assert node.matching_guards(0b0, 1) == []
        node.remove(guard)
        assert node.matching_guards(0b00110000, 8) == []

    def test_remove_missing_entry_raises(self):
        node = make_node()
        with pytest.raises(TreeInvariantError):
            node.remove(Entry(RegionKey(1, 0), 0, page=9))

    COLUMNS = (
        "_c_org",
        "_c_end",
        "_c_nat_aligned",
        "_c_nat_end",
        "_c_nat_nbits",
        "_c_nat_entries",
        "_c_g_aligned",
        "_c_g_end",
        "_c_g_nbits",
        "_c_g_entries",
    )

    @staticmethod
    def mixed_entries(seed):
        """Natives (level 1) and guards (level 0) of a level-2 node, with
        nested natives sharing aligned origins, in shuffled order."""
        rng = random.Random(seed)
        keys = {RegionKey(2, 0b10), RegionKey(4, 0b1000), RegionKey(6, 0b100000)}
        while len(keys) < 9:
            nbits = rng.randint(1, 8)
            keys.add(RegionKey(nbits, rng.randrange(1 << nbits)))
        entries = [Entry(k, 1, page=i) for i, k in enumerate(keys)]
        guards = {RegionKey(1, 0), RegionKey(3, 0b100), RegionKey(5, 0b10001)}
        entries += [Entry(k, 0, page=100 + i) for i, k in enumerate(guards)]
        rng.shuffle(entries)
        return entries

    @pytest.mark.parametrize("seed", range(5))
    def test_one_pass_build_equals_repeated_add(self, seed):
        entries = self.mixed_entries(seed)
        built = make_node(entries, index_level=2)
        added = make_node(index_level=2)
        for entry in entries:
            added.add(entry)
        assert built.entries == added.entries
        assert built._keyset == added._keyset
        for column in self.COLUMNS:
            assert getattr(built, column) == getattr(added, column), column
        for path in range(256):
            for bits in (8, 6, 4, 2):
                q = path >> (8 - bits)
                assert built.best_native_match(q, bits) is added.best_native_match(
                    q, bits
                )
                assert built.matching_guards(q, bits) == added.matching_guards(
                    q, bits
                )

    def test_one_pass_build_rejects_duplicate_keys(self):
        key = RegionKey(3, 0b101)
        with pytest.raises(TreeInvariantError):
            make_node([Entry(key, 0, page=1), Entry(key, 0, page=2)])

    def test_clone_matches_and_is_independent(self):
        node = make_node(self.mixed_entries(7), index_level=2)
        snapshot = {c: list(getattr(node, c)) for c in self.COLUMNS}
        keyset = set(node._keyset)
        pages = [e.page for e in node.entries]
        copy = node.clone()
        assert [(e.key, e.level, e.page) for e in copy.entries] == [
            (e.key, e.level, e.page) for e in node.entries
        ]
        assert not any(a is b for a, b in zip(copy.entries, node.entries))
        # The clone's columns point at its own entries, in the same slots.
        index = {id(e): i for i, e in enumerate(copy.entries)}
        original = {id(e): i for i, e in enumerate(node.entries)}
        for column in ("_c_nat_entries", "_c_g_entries"):
            assert [index[id(e)] for e in getattr(copy, column)] == [
                original[id(e)] for e in getattr(node, column)
            ]
        rebuilt = make_node(copy.entries, index_level=2)
        for column in self.COLUMNS:
            assert getattr(copy, column) == getattr(rebuilt, column), column
        # Mutating the clone leaves the original unchanged.
        for entry in list(copy.entries[:4]):
            copy.remove(entry)
        copy.add(Entry(RegionKey(8, 0b11111111), 1, page=999))
        copy.entries[0].page = -1
        assert {c: list(getattr(node, c)) for c in self.COLUMNS} == snapshot
        assert node._keyset == keyset
        assert [e.page for e in node.entries] == pages


class TestLayoutSelection:
    def test_explicit_flag_overrides_plain_store(self):
        tree = BVTree(
            DataSpace.unit(2, resolution=8),
            store=PageStore(),
            layout="columnar",
        )
        assert tree.layout == "columnar"
        assert isinstance(tree.store.read(tree.root_page), ColumnarDataPage)

    def test_default_is_columnar(self):
        tree = BVTree(DataSpace.unit(2, resolution=8))
        assert tree.layout == "columnar"
        assert isinstance(tree.store.read(tree.root_page), ColumnarDataPage)

    def test_layout_comes_only_from_layout_argument(self, tmp_path):
        space = DataSpace.unit(2, resolution=8)
        durable = DurableStore(tmp_path, sync="os")
        for store in (PageStore(), BufferPool(PageStore()), durable):
            assert not hasattr(store, "layout")
            assert BVTree(space, store=store).layout == DEFAULT_LAYOUT
        durable.close(checkpoint=False)
        tree = BVTree(space, store=PageStore(), layout="object")
        assert tree.layout == "object"
        assert not isinstance(tree.store.read(tree.root_page), ColumnarDataPage)

    def test_unknown_layout_rejected(self):
        with pytest.raises(ReproError):
            BVTree(DataSpace.unit(2, resolution=8), layout="rowwise")

    def test_layouts_constant(self):
        assert tuple(LAYOUTS) == ("object", "columnar")
        assert DEFAULT_LAYOUT == "columnar"


class TestLocateColumnar:
    def make_tree(self, n=300):
        space = DataSpace.unit(2, resolution=8)
        tree = BVTree(
            space, data_capacity=4, fanout=4, store=PageStore()
        )
        for i in range(n):
            tree.insert(
                ((i * 37 % 256) / 256, (i * 101 % 256) / 256), i, replace=True
            )
        assert tree.height > 0
        return tree

    def test_matches_generic_locate(self):
        tree = self.make_tree()
        for i in range(0, 300, 7):
            point = ((i * 37 % 256) / 256, (i * 101 % 256) / 256)
            path = tree.space.point_path(point)
            g_entry, g_owner, g_guard_map, g_max = descend(tree, path)
            entry, owner, guard_map, max_guards = locate_columnar(tree, path)
            assert entry is g_entry
            assert owner == g_owner
            assert max_guards == g_max
            assert guard_map == g_guard_map
            assert locate(tree, path).entry is entry

    def test_index_nodes_are_columnar(self):
        tree = self.make_tree()
        root = tree.store.read(tree.root_page)
        assert isinstance(root, ColumnarIndexNode)
