"""Tests that the invariant checker actually catches corruption."""

import pytest

from repro.errors import TreeInvariantError
from repro.core.entry import Entry
from repro.core.node import DataPage, IndexNode
from repro.core.tree import BVTree
from repro.geometry.region import RegionKey
from tests.conftest import make_points


def build_tree(space, layout="columnar"):
    t = BVTree(space, data_capacity=4, fanout=4, layout=layout)
    for i, p in enumerate(make_points(200, 2, seed=51)):
        t.insert(p, i, replace=True)
    t.check(sample_points=20, check_owners=True)
    return t


@pytest.fixture
def tree(unit2):
    return build_tree(unit2)


@pytest.fixture
def object_tree(unit2):
    """For corruptions that edit ``page.records`` in place, which only
    the object layout's plain dict allows."""
    return build_tree(unit2, layout="object")


def first_index_node(tree):
    node = tree.store.read(tree.root_page)
    assert isinstance(node, IndexNode)
    return tree.root_page, node


class TestCorruptionDetection:
    def test_clean_tree_passes(self, tree):
        tree.check(sample_points=50, check_owners=True)

    def test_detects_count_mismatch(self, tree):
        tree.count += 1
        with pytest.raises(TreeInvariantError, match="tree.count"):
            tree.check()

    def test_detects_record_outside_block(self, object_tree):
        tree = object_tree
        # Find a populated data page whose region key is non-trivial, and
        # move one record just outside its block (flip the key's last bit).
        stack = [tree.root_entry()]
        victim = None
        while stack:
            entry = stack.pop()
            if entry.level == 0:
                if entry.key.nbits > 0 and len(tree.store.read(entry.page)):
                    victim = entry
                    break
                continue
            stack.extend(tree.store.read(entry.page).entries)
        assert victim is not None
        page = tree.store.read(victim.page)
        path = next(iter(page.records))
        flipped = path ^ (
            1 << (tree.space.path_bits - victim.key.nbits)
        )
        page.records[flipped] = page.records.pop(path)
        with pytest.raises(TreeInvariantError):
            tree.check()

    def test_detects_dangling_page(self, tree):
        _, node = first_index_node(tree)
        victim = node.entries[0]
        tree.store.free(victim.page)
        with pytest.raises(TreeInvariantError):
            tree.check()

    def test_detects_double_reference(self, tree):
        page, node = first_index_node(tree)
        fresh = Entry(
            RegionKey.from_bits("1" * tree.space.path_bits),
            node.index_level - 1,
            node.entries[0].page,
        )
        node.entries.append(fresh)
        with pytest.raises(TreeInvariantError):
            tree.check()

    def test_detects_registry_desync(self, tree):
        _, node = first_index_node(tree)
        entry = node.natives()[0]
        tree.unregister_entry(entry)
        with pytest.raises(TreeInvariantError, match="registry"):
            tree.check()

    def test_detects_key_not_extending_node_region(self, tree):
        # Install a deep child whose key escapes the node's region.
        page, node = first_index_node(tree)
        inner_entry = next(e for e in node.natives() if e.key.nbits > 0)
        child = tree.store.read(inner_entry.page)
        if isinstance(child, DataPage):
            pytest.skip("tree too shallow for this corruption")
        foreign_bits = "1" if inner_entry.key.bit_string()[0] == "0" else "0"
        bad = Entry(
            RegionKey.from_bits(foreign_bits * 6),
            child.index_level - 1,
            tree.store.allocate(DataPage()),
        )
        child.entries.append(bad)
        tree.register_entry(bad)
        with pytest.raises(TreeInvariantError):
            tree.check()

    def test_detects_bad_occupancy(self, object_tree):
        tree = object_tree
        page_id = next(
            pid
            for pid in tree.store.page_ids()
            if isinstance(tree.store.read(pid), DataPage)
            and pid != tree.root_page
            and len(tree.store.read(pid)) > 0
        )
        page = tree.store.read(page_id)
        drained = len(page.records)
        page.records.clear()
        tree.count -= drained
        with pytest.raises(TreeInvariantError):
            tree.check(check_occupancy=True)
        tree.check(check_occupancy=False)

    def test_sampled_relocation(self, tree):
        tree.check(sample_points=1000)  # more samples than records is fine
