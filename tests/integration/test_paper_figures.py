"""Constructive reproductions of the paper's dynamic figures.

Figure 2-1a…2-1d show a BV-tree being *built*: first data split, first
index split with a promotion, root growth with re-promotion.  Figure 4-1
shows a promoted data page splitting: the outer part keeps guarding, the
inner part is demoted.  These tests drive the real insertion code through
those transitions and assert the structural shape after each.
"""

import pytest

from repro.core.entry import Entry
from repro.core.node import DataPage, IndexNode
from repro.core.tree import BVTree
from repro.geometry.region import ROOT_KEY, RegionKey
from repro.geometry.space import DataSpace


def key(bits: str) -> RegionKey:
    return RegionKey.from_bits(bits)


class TestFigure21Sequence:
    """The 2-1a → 2-1d construction narrative, on real inserts."""

    def test_2_1a_single_region(self):
        # "Initially, there is a single subspace or region, which is the
        # whole data space."
        tree = BVTree(DataSpace.unit(2, resolution=12), data_capacity=4, fanout=4)
        for i, x in enumerate((0.1, 0.3, 0.6, 0.9)):
            tree.insert((x, x), i)
        assert tree.height == 0
        assert isinstance(tree.store.read(tree.root_page), DataPage)

    def test_2_1b_first_split_creates_two_region_index(self):
        # "Figure 2-lb shows a data space after the first overflow and
        # split.  An index node has been created which contains two
        # entries ... each entry is labelled with its partition level."
        tree = BVTree(DataSpace.unit(2, resolution=12), data_capacity=4, fanout=4)
        for i in range(5):
            tree.insert((0.05 + 0.2 * i, 0.5), i)
        assert tree.height == 1
        root: IndexNode = tree.store.read(tree.root_page)
        assert root.index_level == 1
        assert root.native_count() == 2
        assert all(e.level == 0 for e in root.entries)
        # Enclosure representation: the outer keeps the whole-space key.
        keys = sorted(e.key for e in root.entries)
        assert keys[0].is_prefix_of(keys[1])

    def test_2_1c_index_split_promotes_the_enclosing_region(self):
        # Figure 2-1c: an index split whose boundary is enclosed by a
        # level-0 region promotes that region's entry ("d0") into the
        # node above, labelled with its original partition level.  The
        # promotion-storm workload concentrates mass on both sides of
        # successive binary boundaries, which forces the configuration.
        from repro.workloads import promotion_storm

        def live_guard(tree):
            stack = [tree.root_entry()]
            while stack:
                entry = stack.pop()
                if entry.level == 0:
                    continue
                node = tree.store.read(entry.page)
                for child in node.entries:
                    if child.level < node.index_level - 1:
                        return child, node
                    stack.append(child)
            return None, None

        tree = BVTree(DataSpace.unit(2, resolution=16), data_capacity=4, fanout=4)
        guard = holder = None
        for i, p in enumerate(promotion_storm(4000, 2, seed=21)):
            tree.insert(p, i, replace=True)
            if tree.stats.promotions:
                guard, holder = live_guard(tree)
                if guard is not None:
                    break
        assert tree.stats.promotions >= 1, "no promotion was forced"
        assert guard is not None, "no guard ever survived placement"
        # "There is no confusion between guards and guarded within an
        # index node, because every entry is labelled with its partition
        # level": the level label is what identifies it.
        assert guard.level < holder.index_level - 1
        tree.check(sample_points=50, check_owners=True)

    def test_2_1d_deeper_growth_preserves_all_invariants(self):
        # Figure 2-1d: after further splits and a third index level, the
        # root holds guards of several partition levels (d0 and b1), the
        # guard set re-constitutes the hierarchy during descent, and
        # every search still costs height+1 pages (§6).
        from repro.workloads import promotion_storm

        tree = BVTree(DataSpace.unit(2, resolution=16), data_capacity=4, fanout=4)
        points = []
        for i, p in enumerate(promotion_storm(4000, 2, seed=22)):
            tree.insert(p, i, replace=True)
            points.append(p)
        assert tree.height >= 3
        stats = tree.tree_stats()
        assert stats.total_guards >= 1
        assert len(stats.guards_by_level) >= 1
        tree.check(sample_points=100, check_owners=True)
        peak_guard_set = 0
        for p in points[:200]:
            probe = tree.search(p)
            assert probe.nodes_visited == tree.height + 1
            peak_guard_set = max(peak_guard_set, probe.max_guard_set)
        # §3: at index level x the guard set holds at most x-1 members.
        assert peak_guard_set <= tree.height - 1


class TestFigure41GuardSplit:
    """Figure 4-1: a promoted data page splits; the inner part demotes."""

    @pytest.fixture
    def tree_with_guard(self):
        """A hand-built two-level tree with a level-0 guard at the root.

        The guard (key ε, the analogue of d0) owns the uncovered paths
        '101…'; its page holds 4 records so one more insert splits it.
        """
        space = DataSpace.unit(1, resolution=24)
        tree = BVTree(space, data_capacity=4, fanout=4)
        store = tree.store
        store.free(tree.root_page)

        def data_page(*xs):
            page = tree.make_data_page()
            for i, x in enumerate(xs):
                point = (x,)
                page.insert(space.point_path(point), point, f"v{x}")
            return store.allocate(page, size_class=0)

        d0 = data_page(0.651, 0.663, 0.690, 0.699)  # paths 101…
        a1 = store.allocate(
            tree.make_index_node(1, [Entry(key("0"), 0, data_page(0.1, 0.2))]),
            size_class=1,
        )
        f1 = store.allocate(
            tree.make_index_node(1, [Entry(key("100"), 0, data_page(0.52, 0.55))]),
            size_class=1,
        )
        b1 = store.allocate(
            tree.make_index_node(1, [Entry(key("11"), 0, data_page(0.8, 0.9))]),
            size_class=1,
        )
        root = store.allocate(
            tree.make_index_node(
                2,
                [
                    Entry(key("0"), 1, a1),
                    Entry(key("1"), 1, f1),
                    Entry(key("11"), 1, b1),
                    Entry(ROOT_KEY, 0, d0),  # the d0 guard
                ],
            ),
            size_class=2,
        )
        tree.root_page = root
        tree.height = 2
        tree.count = 10
        stack = [tree.root_entry()]
        while stack:
            entry = stack.pop()
            content = store.read(entry.page)
            if isinstance(content, IndexNode):
                for child in content.entries:
                    tree.register_entry(child)
                    stack.append(child)
        tree.check(check_occupancy=False, check_justification=False)
        return tree, d0

    def test_guard_page_owns_uncovered_paths(self, tree_with_guard):
        tree, d0 = tree_with_guard
        found = tree.search((0.67,))  # path 101…
        assert found.entry.page == d0

    def test_inner_demotes_outer_keeps_guarding(self, tree_with_guard):
        tree, d0 = tree_with_guard
        tree.insert((0.671,), "overflow trigger")  # fifth 101… record
        tree.check(check_occupancy=False, check_justification=False)
        root: IndexNode = tree.store.read(tree.root_page)
        # The outer (ε) part still guards at the root — Figure 4-1's d0'.
        outer = root.find(ROOT_KEY, 0)
        assert outer is not None and outer.page == d0
        # The inner part (d0'') was demoted: it now lives as a native in
        # the level-1 node whose region contains it ('1', node f1).
        new_l0 = [
            k for k in tree.keys[0] if k.nbits > 0 and k.bit_string().startswith("10")
        ]
        assert new_l0, "no inner region was created"
        inner_entry = tree.keys[0][new_l0[0]]
        from repro.core.descent import find_owner

        owner_page = find_owner(tree, inner_entry)
        owner: IndexNode = tree.store.read(owner_page)
        assert owner.index_level == 1  # native position, not the root
        assert tree.stats.demotions >= 1
        # All records remain reachable on both sides of the split.
        assert tree.get((0.671,)) == "overflow trigger"
        assert tree.get((0.651,)) == "v0.651"
