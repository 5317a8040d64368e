"""One test per checker error branch, matched on the message it raises.

The invariant checker's value is its diagnoses: each corruption class has
its own message, and regressions that collapse two classes into one (or
stop detecting one) should fail here even if *some* error still comes
out.  ``tests/core/test_checker.py`` checks that corruption is detected;
this module pins down *which* error each corruption produces.
"""

import pytest

from repro.errors import TreeInvariantError
from repro.core.entry import Entry
from repro.core.node import DataPage, IndexNode
from repro.core.tree import BVTree
from repro.geometry.region import RegionKey
from tests.conftest import make_points


@pytest.fixture
def tree(unit2):
    # Object layout on purpose: these corruptions edit ``page.records``
    # and ``node.entries`` in place, which the columnar layout's derived
    # columns (and its read-only record view) do not allow.
    t = BVTree(unit2, data_capacity=4, fanout=4, layout="object")
    for i, p in enumerate(make_points(200, 2, seed=51)):
        t.insert(p, i, replace=True)
    assert t.height >= 2, "fixture tree too shallow for these corruptions"
    t.check(sample_points=20, check_owners=True)
    return t


def root_node(tree):
    node = tree.store.read(tree.root_page)
    assert isinstance(node, IndexNode)
    return node


def some_data_entry(tree, min_records=1):
    """A non-root level-0 entry whose page holds at least min_records."""
    stack = [tree.root_entry()]
    while stack:
        entry = stack.pop()
        if entry.level == 0:
            if (
                entry.page != tree.root_page
                and len(tree.store.read(entry.page)) >= min_records
            ):
                return entry
            continue
        stack.extend(tree.store.read(entry.page).entries)
    pytest.fail("no suitable data page in fixture tree")


def fresh_level0_key(tree):
    """A full-length level-0 key not registered anywhere in the tree."""
    bits = tree.space.path_bits
    for value in (0, (1 << bits) - 1, 0x5A5A5A5A % (1 << bits)):
        key = RegionKey(bits, value)
        if tree.registered(0, key) is None:
            return key
    pytest.fail("no fresh key found")


class TestCheckerMessages:
    def test_freed_page(self, tree):
        victim = root_node(tree).entries[0]
        tree.store.free(victim.page)
        with pytest.raises(TreeInvariantError, match="freed page"):
            tree.check()

    def test_duplicate_region_key(self, tree):
        node = root_node(tree)
        natives = node.natives()
        assert len(natives) >= 2
        natives[1].key = natives[0].key
        with pytest.raises(TreeInvariantError, match="duplicate level-"):
            tree.check()

    def test_unjustified_guard(self, tree):
        # A full-length level-0 key encloses nothing, so lodging it in the
        # root as a guard is never justified.
        node = root_node(tree)
        assert node.index_level >= 2
        bad = Entry(fresh_level0_key(tree), 0, tree.store.allocate(DataPage()))
        node.add(bad)
        with pytest.raises(TreeInvariantError, match="encloses no"):
            tree.check(check_justification=True)

    def test_count_mismatch(self, tree):
        tree.count += 5
        with pytest.raises(TreeInvariantError, match="tree.count is"):
            tree.check()

    def test_data_occupancy_violation(self, tree):
        entry = some_data_entry(tree, min_records=tree.policy.min_data_occupancy())
        page = tree.store.read(entry.page)
        while len(page) >= tree.policy.min_data_occupancy():
            page.records.pop(next(iter(page.records)))
            tree.count -= 1
        with pytest.raises(TreeInvariantError, match="records, minimum is"):
            tree.check(check_occupancy=True)
        tree.check(check_occupancy=False)

    def test_index_occupancy_violation(self, unit2):
        # Needs a fanout whose index minimum exceeds one entry, so build a
        # wider tree than the shared fixture, then drain a level-1 index
        # node below the minimum — unhooking each removed subtree
        # completely so only the occupancy check can fire.
        wide = BVTree(unit2, data_capacity=4, fanout=12)
        for i, p in enumerate(make_points(400, 2, seed=51)):
            wide.insert(p, i, replace=True)
        min_index = wide.policy.min_index_occupancy()
        assert min_index >= 2
        node = next(
            wide.store.read(pid)
            for pid in wide.store.page_ids()
            if pid != wide.root_page
            and isinstance(wide.store.read(pid), IndexNode)
            and wide.store.read(pid).index_level == 1
            and len(wide.store.read(pid).entries) > 1
        )
        while len(node.entries) > 1:
            victim = node.entries[-1]
            node.remove(victim)
            wide.count -= len(wide.store.read(victim.page))
            wide.store.free(victim.page)
            wide.unregister_entry(victim)
        with pytest.raises(TreeInvariantError, match="entries, minimum is"):
            wide.check(check_occupancy=True)

    def test_double_reference(self, tree):
        # The walk pops entries in reverse order, so aliasing the first
        # native onto the last one's page lets the last be walked cleanly
        # before the first trips the duplicate-reference check.
        natives = root_node(tree).natives()
        assert len(natives) >= 2
        natives[0].page = natives[-1].page
        with pytest.raises(TreeInvariantError, match="more than one entry"):
            tree.check(check_justification=False)

    def test_level0_entry_at_index_node(self, tree):
        # Relabel a native entry as level-0: it now "points at IndexNode".
        entry = root_node(tree).natives()[0]
        entry.level = 0
        with pytest.raises(TreeInvariantError, match="points at IndexNode"):
            tree.check(check_justification=False)

    def test_index_entry_at_data_page(self, tree):
        entry = root_node(tree).natives()[0]
        entry.page = tree.store.allocate(DataPage())
        with pytest.raises(TreeInvariantError, match="points at DataPage"):
            tree.check()

    def test_node_without_native_entries(self, tree):
        node = root_node(tree)
        node.entries[:] = [
            e for e in node.entries if not e.is_native_in(node.index_level)
        ]
        with pytest.raises(TreeInvariantError, match="no native entries"):
            tree.check(check_justification=False)

    def test_entry_level_exceeds_node_level(self, tree):
        node = root_node(tree)
        entry = node.natives()[0]
        entry.level = node.index_level
        with pytest.raises(TreeInvariantError, match="entry in index-level-"):
            tree.check()

    def test_registry_out_of_sync(self, tree):
        phantom = Entry(fresh_level0_key(tree), 0, 999_999)
        tree.keys.setdefault(0, {})[phantom.key] = phantom
        with pytest.raises(TreeInvariantError, match="key registry out of sync"):
            tree.check()

    def test_record_outside_block(self, tree):
        entry = some_data_entry(tree)
        if entry.key.nbits == 0:
            pytest.skip("page block covers the whole space")
        page = tree.store.read(entry.page)
        path = next(iter(page.records))
        flipped = path ^ (1 << (tree.space.path_bits - entry.key.nbits))
        page.records[flipped] = page.records.pop(path)
        with pytest.raises(TreeInvariantError, match="outside its page block"):
            tree.check()
