"""The paper's worked example (§3.1, Figures 2-1a…2-1d), reconstructed.

The figures' regions are schematic, so the test builds a BV-tree with the
same *structure* — a three-level index whose root holds two unpromoted
entries plus a level-0 guard and level-1 guards, with a further level-0
guard one level down — and verifies the §3.1 search narrative exactly:

- at the root, guard ``d0`` matches and joins the guard set;
- one level down, guard ``b0`` is a better match and ``d0`` is discarded;
- at index level 1, ``b0`` has returned to its original level, beats the
  unpromoted ``a0``, and the search ends in ``b0``'s page — a notional
  backtrack with no node revisited, in exactly ``height + 1`` page reads.
"""

import pytest

from repro.core.entry import Entry
from repro.core.node import IndexNode
from repro.core.tree import BVTree
from repro.geometry.region import ROOT_KEY, RegionKey
from repro.geometry.space import DataSpace


def key(bits: str) -> RegionKey:
    return RegionKey.from_bits(bits)


@pytest.fixture
def paper_tree():
    """A hand-built BV-tree mirroring Figure 2-1d's index structure."""
    space = DataSpace.unit(1, resolution=24)
    tree = BVTree(space, data_capacity=4, fanout=4)
    store = tree.store
    tree.store.free(tree.root_page)  # replace the fresh root data page

    pages = {
        name: store.allocate(tree.make_data_page(), size_class=0)
        for name in ("a0", "b0", "c1d", "d0", "f1d", "b1d", "g1d")
    }

    a1 = store.allocate(
        tree.make_index_node(1, [Entry(key("01"), 0, pages["a0"])]), size_class=1
    )
    c1 = store.allocate(
        tree.make_index_node(1, [Entry(key("001"), 0, pages["c1d"])]), size_class=1
    )
    f1 = store.allocate(
        tree.make_index_node(1, [Entry(key("1"), 0, pages["f1d"])]), size_class=1
    )
    b1 = store.allocate(
        tree.make_index_node(1, [Entry(key("11"), 0, pages["b1d"])]), size_class=1
    )
    g1 = store.allocate(
        tree.make_index_node(1, [Entry(key("111"), 0, pages["g1d"])]), size_class=1
    )

    a2 = store.allocate(
        tree.make_index_node(
            2,
            [
                Entry(key("0"), 1, a1),     # a1 (unpromoted)
                Entry(key("001"), 1, c1),   # c1 (unpromoted)
                Entry(key("00"), 0, pages["b0"]),  # b0: promoted guard
            ],
        ),
        size_class=2,
    )
    c2 = store.allocate(
        tree.make_index_node(2, [Entry(key("111"), 1, g1)]), size_class=2
    )

    root = store.allocate(
        tree.make_index_node(
            3,
            [
                Entry(ROOT_KEY, 2, a2),      # a2 (unpromoted)
                Entry(key("111"), 2, c2),    # c2 (unpromoted)
                Entry(ROOT_KEY, 0, pages["d0"]),  # d0: level-0 guard
                Entry(key("11"), 1, b1),     # b1: level-1 guard
                Entry(key("1"), 1, f1),      # f1: level-1 guard
            ],
        ),
        size_class=3,
    )
    tree.root_page = root
    tree.height = 3

    # Register every stored key (the registry is derived state).
    stack = [tree.root_entry()]
    while stack:
        entry = stack.pop()
        node_or_page = store.read(entry.page)
        if isinstance(node_or_page, IndexNode):
            for child in node_or_page.entries:
                tree.register_entry(child)
                stack.append(child)
    return tree, pages


def path_for(tree, bits: str) -> int:
    """A full-resolution path starting with the given bits (rest zeros)."""
    return int(bits, 2) << (tree.space.path_bits - len(bits))


class TestFigure21d:
    def test_structure_is_well_formed(self, paper_tree):
        tree, _ = paper_tree
        tree.check(check_occupancy=False, check_justification=False)

    def test_search_for_point_plus(self, paper_tree):
        # §3.1's narrative: the point + lies in b0's region ('000…',
        # outside c1's '001' hole).
        tree, pages = paper_tree
        from repro.core.descent import locate

        found = locate(tree, path_for(tree, "0001"))
        assert found.entry.page == pages["b0"]
        assert found.nodes_visited == tree.height + 1  # no backtracking

    def test_d0_discarded_when_b0_matches_better(self, paper_tree):
        # At index level 2 the guard set holds d0; b0 is the better match
        # and replaces it ("the latter is discarded").
        tree, pages = paper_tree
        from repro.core.descent import locate

        found = locate(tree, path_for(tree, "0001"))
        assert all(ref[0].page != pages["d0"] for ref in found.guards.refs())

    def test_unpromoted_a0_wins_outside_guard(self, paper_tree):
        # A point in a0's region ('01…') never meets b0.
        tree, pages = paper_tree
        from repro.core.descent import locate

        found = locate(tree, path_for(tree, "0111"))
        assert found.entry.page == pages["a0"]

    def test_routes_into_promoted_subtrees(self, paper_tree):
        tree, pages = paper_tree
        from repro.core.descent import locate

        # f1's subtree serves '10…'; b1's serves '110…'; c2's '111…'.
        assert locate(tree, path_for(tree, "100")).entry.page == pages["f1d"]
        assert locate(tree, path_for(tree, "110")).entry.page == pages["b1d"]
        assert locate(tree, path_for(tree, "111")).entry.page == pages["g1d"]

    def test_all_paths_cost_height_plus_one(self, paper_tree):
        # §6: the unbalanced index tree still has fixed-length searches.
        tree, _ = paper_tree
        from repro.core.descent import locate

        for bits in ("0001", "001", "0111", "100", "110", "111", "000"):
            found = locate(tree, path_for(tree, bits))
            assert found.nodes_visited == tree.height + 1

    def test_inserts_land_in_the_figure_pages(self, paper_tree):
        tree, pages = paper_tree
        tree.insert((0.001,), "in b0")   # path 000…
        tree.insert((0.4,), "in a0")     # path 01…
        tree.insert((0.6,), "in f1")     # path 10…
        assert "in b0" in [
            v for _, v in tree.store.read(pages["b0"]).records.values()
        ]
        assert "in a0" in [
            v for _, v in tree.store.read(pages["a0"]).records.values()
        ]
        assert "in f1" in [
            v for _, v in tree.store.read(pages["f1d"]).records.values()
        ]
        for point in ((0.001,), (0.4,), (0.6,)):
            assert tree.contains(point)
