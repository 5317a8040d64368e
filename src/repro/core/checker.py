"""Structural invariant checker.

Verifies, on demand, every invariant the BV-tree's guarantees rest on.
Used heavily by the test suite (including the property-based tests, which
call it after every batch of random operations); seeing it fail indicates a
bug in the library, never bad user input.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.errors import TreeInvariantError
from repro.core.descent import find_owner, locate
from repro.core.entry import Entry
from repro.core.placement import justified
from repro.core.node import DataPage, IndexNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tree import BVTree


def check_tree(
    tree: "BVTree",
    sample_points: int = 0,
    check_occupancy: bool = True,
    check_owners: bool = False,
    check_justification: bool | None = None,
) -> None:
    """Raise :class:`TreeInvariantError` on any violated invariant.

    Checked invariants:

    1. every entry's key extends (or equals) the key of the region whose
       node stores it, and its level fits the node's index level;
    2. region keys are unique per partition level, tree-wide;
    3. every index node has at least one native entry; when
       ``check_justification`` is on (the default for trees that have never
       merged), every guard directly encloses a higher-level entry of its
       node — deletions may legitimately leave a guard that outlived its
       split boundary (see :mod:`repro.core.delete`), so the check is
       skipped once merges have happened;
    4. every node is reachable through exactly one entry and the page
       store contains no leaked or dangling pages belonging to the tree;
    5. data records lie inside their page's block, and the tree's record
       count matches the sum over pages;
    6. (``check_occupancy``) non-root pages meet the policy's minimum
       occupancy unless a merge was explicitly deferred;
    7. (``check_owners``) ``find_owner`` locates every entry — the descent
       property that makes updates single-descent operations;
    8. (``sample_points > 0``) stored records are re-found via the public
       exact-match search, whose descent raises on a node whose index
       level is not the one expected — that is what holds it to the
       path-length law ``nodes visited == height + 1``.
    """
    if check_justification is None:
        check_justification = tree.stats.merges == 0
    keys_by_level: dict[int, set] = {}
    referenced_pages: set[int] = set()
    total_records = 0
    path_bits = tree.space.path_bits
    sampled: list[tuple[float, ...]] = []

    root = tree.root_entry()
    stack: list[Entry] = [root]
    while stack:
        entry = stack.pop()
        if entry.page in referenced_pages:
            raise TreeInvariantError(
                f"page {entry.page} is referenced by more than one entry"
            )
        referenced_pages.add(entry.page)
        if entry.page not in tree.store:
            raise TreeInvariantError(
                f"entry {entry!r} references freed page {entry.page}"
            )
        if entry is not root:
            seen = keys_by_level.setdefault(entry.level, set())
            if entry.key in seen:
                raise TreeInvariantError(
                    f"duplicate level-{entry.level} region key {entry.key!r}"
                )
            seen.add(entry.key)

        if entry.level == 0:
            page = tree.store.read(entry.page)
            if not isinstance(page, DataPage):
                raise TreeInvariantError(
                    f"level-0 entry {entry!r} points at {type(page).__name__}"
                )
            total_records += len(page)
            for path, (point, _) in page.records.items():
                if not entry.key.contains_path(path, path_bits):
                    raise TreeInvariantError(
                        f"record {point} lies outside its page block "
                        f"{entry.key!r}"
                    )
            if sample_points and len(sampled) < sample_points and page.records:
                sampled.extend(
                    point
                    for point, _ in itertools.islice(
                        page.records.values(),
                        max(1, sample_points - len(sampled)),
                    )
                )
            continue

        node = tree.store.read(entry.page)
        if not isinstance(node, IndexNode):
            raise TreeInvariantError(
                f"level-{entry.level} entry {entry!r} points at "
                f"{type(node).__name__}"
            )
        if node.index_level != entry.level:
            raise TreeInvariantError(
                f"entry {entry!r} points at node of index level "
                f"{node.index_level}"
            )
        if node.native_count() == 0:
            raise TreeInvariantError(
                f"index node {entry.page} has no native entries"
            )
        for child in node.entries:
            if not entry.key.is_prefix_of(child.key):
                raise TreeInvariantError(
                    f"child key {child.key!r} does not extend node region "
                    f"{entry.key!r}"
                )
            if child.level > node.index_level - 1:
                raise TreeInvariantError(
                    f"level-{child.level} entry in index-level-"
                    f"{node.index_level} node"
                )
            if (
                check_justification
                and child.level < node.index_level - 1
                and not justified(tree, child, node)
            ):
                raise TreeInvariantError(
                    f"guard {child!r} in node {entry.page} encloses no "
                    f"higher-level entry directly"
                )
            stack.append(child)

    # Page-store reconciliation: nothing leaked, nothing dangling.  Only
    # meaningful when the store is not shared with other structures, which
    # the tree cannot know; a superset store is therefore tolerated but a
    # missing page never is.
    for page_id in referenced_pages:
        if page_id not in tree.store:
            raise TreeInvariantError(f"entry references freed page {page_id}")

    if total_records != tree.count:
        raise TreeInvariantError(
            f"tree.count is {tree.count} but pages hold {total_records}"
        )

    registered = {
        (level, key)
        for level, keys in tree.keys.items()
        for key in keys
    }
    stored = {
        (level, key)
        for level, keys in keys_by_level.items()
        for key in keys
    }
    if registered != stored:
        raise TreeInvariantError(
            f"key registry out of sync: only-registered="
            f"{sorted(registered - stored)[:5]}, only-stored="
            f"{sorted(stored - registered)[:5]}"
        )

    if check_occupancy:
        _check_occupancy(tree, root)

    if check_owners:
        _check_owners(tree, root)

    for point in sampled:
        found = locate(tree, tree.space.point_path(point))
        page = tree.store.read(found.entry.page)
        if tree.space.point_path(point) not in page.records:
            raise TreeInvariantError(f"stored record {point} not re-found")


def _check_occupancy(tree: "BVTree", root: Entry) -> None:
    deferred = tree.stats.deferred_merges or tree.stats.deferred_splits
    min_data = tree.policy.min_data_occupancy()
    min_index = tree.policy.min_index_occupancy()
    stack = [root]
    while stack:
        entry = stack.pop()
        if entry.level == 0:
            page: DataPage = tree.store.read(entry.page)
            if entry is not root and len(page) < min_data and not deferred:
                raise TreeInvariantError(
                    f"data page {entry.page} holds {len(page)} records, "
                    f"minimum is {min_data}"
                )
            continue
        node: IndexNode = tree.store.read(entry.page)
        if entry is not root and len(node) < min_index and not deferred:
            raise TreeInvariantError(
                f"index node {entry.page} holds {len(node)} entries, "
                f"minimum is {min_index}"
            )
        stack.extend(node.entries)


def _check_owners(tree: "BVTree", root: Entry) -> None:
    stack = [root]
    while stack:
        entry = stack.pop()
        if entry.level == 0:
            continue
        node: IndexNode = tree.store.read(entry.page)
        for child in node.entries:
            owner = find_owner(tree, child)
            if owner != entry.page:
                raise TreeInvariantError(
                    f"find_owner located {child!r} in page {owner}, "
                    f"expected {entry.page}"
                )
            stack.append(child)
