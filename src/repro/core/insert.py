"""Insertion: data/index splits, promotion, guard lodging, demotion.

The update algebra of the BV-tree (paper §§2, 4):

- A data page that exceeds ``P`` records splits by the balanced binary
  descent; the *outer* region keeps its key and page, the *inner* region is
  a new entry whose key extends the outer's.
- An index node that exceeds its capacity splits the same way over its
  native entries' keys.  Entries whose key is a proper prefix of the split
  key would straddle the new boundary; instead of splitting them — which
  would cascade — they are **promoted** into the parent node as guards.
- When a region that is itself stored as a guard splits (§4), the outer
  part keeps guarding; the inner part is **demoted** toward its unpromoted
  position by a single root descent, lodging as a guard at the first node
  where it directly encloses a higher-level region, and displacing any
  same-level guard it shadows (which then becomes the next demotion
  candidate).

Every placement decision is local to one node plus its parent; nothing
below a split is ever touched — the defining contrast with the K-D-B tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import TreeInvariantError
from repro.core.descent import find_owner, locate, step
from repro.core.entry import Entry
from repro.core.guards import GuardSet
from repro.core.node import DataPage, IndexNode
from repro.core.placement import justified, placement_walk
from repro.core.split import choose_split
from repro.geometry.region import ROOT_KEY, RegionKey
from repro.obs.events import DATA_SPLIT, DEMOTION, INDEX_SPLIT, PROMOTION

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tree import BVTree


def insert_point(
    tree: "BVTree",
    point: Sequence[float],
    value: Any,
    replace: bool = False,
) -> None:
    """Insert one record, splitting pages upward as needed."""
    pt = tuple(float(x) for x in point)
    path = tree.space.point_path(pt)
    found = locate(tree, path)
    page: DataPage = tree.store.read(found.entry.page)
    had_record = path in page
    page.insert(path, pt, value, replace=replace)
    tree.store.write(found.entry.page, page)
    tree.stats.inserts += 1
    if not had_record:
        tree.count += 1
    if tree.policy.data_overflows(len(page)):
        split_data_page(tree, found.entry)


# ----------------------------------------------------------------------
# Splitting
# ----------------------------------------------------------------------


def split_data_page(tree: "BVTree", entry: Entry) -> None:
    """Split an overflowing data page (paper §2, Figure 2-1b)."""
    page: DataPage = tree.store.read(entry.page)
    path_bits = tree.space.path_bits
    items = [(p, path_bits) for p in page.paths()]
    split_key = choose_split(entry.key, items)
    inner = page.extract_block(split_key, path_bits)
    inner_page = tree.alloc_data_page(inner)
    tree.store.write(entry.page, page)
    tree.stats.data_splits += 1
    tracer = tree.tracer
    if tracer.structural:
        # Every stats bump has a co-located event: replaying a trace's
        # structural events must reproduce the OpCounters delta exactly
        # (the integration tests assert this).  Structural sites guard on
        # ``structural`` so update-path subscribers (the guarantee
        # monitor) see them even when no read-path kind is subscribed.
        tracer.emit(
            DATA_SPLIT,
            key=split_key.bit_string(),
            outer_page=entry.page,
            inner_page=inner_page,
            moved=len(inner),
        )
    inner_entry = Entry(split_key, 0, inner_page)
    tree.register_entry(inner_entry)
    _place_split_inner(tree, inner_entry, entry)


def split_index_node(tree: "BVTree", node_page: int, entry: Entry) -> None:
    """Split an overflowing index node, promoting straddling entries.

    ``entry`` is the entry pointing at the node.  The split key is chosen
    over the native entries' keys, charging each candidate with the number
    of entries it would promote so the post-split balance is what is
    optimised.  Exactly one native (the longest proper prefix of the split
    key, if any) plus every guard that is a proper prefix of the split key
    move up to the parent (paper §2 and its generalised promotion rule).
    """
    node: IndexNode = tree.store.read(node_page)
    natives = node.natives()
    if len(natives) < 2:
        # With very small fan-outs a node can be all guards; it cannot be
        # split without at least two natives.  Leave it overfull — searches
        # stay correct — and record the anomaly.
        tree.stats.deferred_splits += 1
        return
    items = [(e.key.value, e.key.nbits) for e in natives]
    guards = node.guards()

    def promotion_cost(block: RegionKey) -> tuple[int, int]:
        guard_cost = sum(1 for g in guards if g.key.encloses(block))
        native_cost = 1 if any(e.key.encloses(block) for e in natives) else 0
        return native_cost, guard_cost

    try:
        split_key = choose_split(entry.key, items, promotion_cost)
    except TreeInvariantError:
        # A nested chain of natives (every candidate boundary would
        # promote the whole outer side) cannot be split yet.  Leave the
        # node overfull — searches stay correct — and let a later
        # insertion resolve it once the population diversifies.  Only the
        # uniform policy reaches this (guards pushing the total over F
        # while few natives exist).
        tree.stats.deferred_splits += 1
        return

    promoted_native: Entry | None = None
    for e in natives:
        if e.key.encloses(split_key):
            if promoted_native is None or e.key.nbits > promoted_native.key.nbits:
                promoted_native = e

    inner_entries: list[Entry] = []
    promoted: list[Entry] = []
    for e in list(node.entries):
        if split_key.is_prefix_of(e.key):
            inner_entries.append(e)
        elif e is promoted_native:
            promoted.append(e)
        elif e.level < node.index_level - 1 and e.key.encloses(split_key):
            promoted.append(e)
        # everything else stays in the (outer) node
    for e in inner_entries + promoted:
        node.remove(e)
    inner_node = tree.make_index_node(node.index_level, inner_entries)
    inner_page = tree.alloc_index_node(inner_node)
    tree.store.write(node_page, node)
    tree.stats.index_splits += 1
    tree.stats.promotions += len(promoted)
    tracer = tree.tracer
    if tracer.structural:
        tracer.emit(
            INDEX_SPLIT,
            key=split_key.bit_string(),
            level=entry.level,
            outer_page=node_page,
            inner_page=inner_page,
            moved=len(inner_entries),
        )
        for g in promoted:
            tracer.emit(
                PROMOTION,
                key=g.key.bit_string(),
                level=g.level,
                from_page=node_page,
            )

    inner_entry = Entry(split_key, entry.level, inner_page)
    tree.register_entry(inner_entry)
    _place_split_inner(tree, inner_entry, entry)
    # Re-place highest level first: a lower-level guard's canonical
    # position depends on the higher-level regions that enclose it, so
    # those must be back in the index before the guard's descent runs
    # (placing the level-0 guard of a promoted pair first would demote it
    # along a path that stops existing once the level-1 entry returns).
    for g in sorted(promoted, key=lambda e: e.level, reverse=True):
        _place_guard(tree, g)


def _place_split_inner(tree: "BVTree", inner: Entry, outer: Entry) -> None:
    """Place the inner entry produced by splitting ``outer``'s page.

    If ``outer`` is unpromoted, the inner entry joins it in the same node
    (growing the root when ``outer`` is the tree root).  If ``outer`` is a
    guard, §4 applies: the outer part keeps guarding (its key is
    unchanged), while the inner part lodges as a guard only where it is
    justified, and is otherwise demoted.
    """
    owner_page = find_owner(tree, outer)
    if owner_page is None:
        owner_page = _grow_root(tree)
    owner: IndexNode = tree.store.read(owner_page)
    if outer.level == owner.index_level - 1:
        owner.add(inner)
        tree.store.write(owner_page, owner)
        _check_overflow(tree, owner_page)
        return
    _place_guard(tree, inner)
    # §4's special case: the new inner key may shadow the outer's
    # justification ("dx'' replaces dx' as the guard"), in which case the
    # outer is demoted by the same single descent.
    owner_page = find_owner(tree, outer)
    owner = tree.store.read(owner_page)
    if outer.level < owner.index_level - 1 and not justified(
        tree, outer, owner
    ):
        owner.remove(outer)
        tree.store.write(owner_page, owner)
        _place_guard(tree, outer)
        _demote_unjustified(tree, owner_page)


def _grow_root(tree: "BVTree") -> int:
    """Create a new root one index level up, containing the old root.

    The old root's whole-space region stops being virtual: it becomes a
    stored entry, so it joins the key registry.
    """
    old = tree.root_entry()
    child = Entry(ROOT_KEY, old.level, old.page)
    tree.register_entry(child)
    new_root = tree.make_index_node(old.level + 1, [child])
    new_page = tree.alloc_index_node(new_root)
    tree.root_page = new_page
    tree.height += 1
    return new_page


def _demote_unjustified(tree: "BVTree", node_page: int) -> None:
    """Re-place guards whose justifying target left this node.

    Demoting or displacing an entry can orphan lower-level guards that
    straddled it; they are re-placed by the same §4 descent (each lands
    at its canonical node, which is at or below its current one, so the
    sweep terminates).
    """
    if node_page not in tree.store:
        return
    node = tree.store.read(node_page)
    if not isinstance(node, IndexNode):
        return
    stale = [g for g in node.guards() if not justified(tree, g, node)]
    if not stale:
        return
    for guard in stale:
        node.remove(guard)
    tree.store.write(node_page, node)
    # Highest level first, for the same reason as the promotion re-place
    # loop in split_index_node: lower-level guards canonically sit below
    # the higher-level regions enclosing them.
    stale.sort(key=lambda e: e.level, reverse=True)
    for guard in stale:
        _place_guard(tree, guard)


def _check_overflow(tree: "BVTree", node_page: int) -> None:
    """Split ``node_page`` if it exceeds capacity under the tree's policy."""
    node: IndexNode = tree.store.read(node_page)
    if not tree.policy.index_overflows(node):
        return
    entry = _entry_for_node(tree, node_page)
    split_index_node(tree, node_page, entry)


def _entry_for_node(tree: "BVTree", node_page: int) -> Entry:
    """The entry pointing at ``node_page`` (the virtual entry for the root)."""
    if node_page == tree.root_page:
        return tree.root_entry()
    node: IndexNode = tree.store.read(node_page)
    # Locate by descending for any key in the node: the node's own entry is
    # found as the winner one level above it.  We use the shortest native
    # key as the probe; the owner descent scans for the pointer by page.
    probe = min(
        (e.key for e in node.entries), key=lambda k: k.nbits, default=None
    )
    if probe is None:
        raise TreeInvariantError(f"cannot locate entry of empty node {node_page}")
    current = tree.root_entry()
    guards = GuardSet()
    while current.level > 0:
        if current.page == node_page:
            return current
        parent_node: IndexNode = tree.store.read(current.page)
        current, _ = step(
            parent_node, current.page, probe.value, probe.nbits, guards
        )
    raise TreeInvariantError(
        f"descent for node {node_page} reached a data page instead"
    )


# ----------------------------------------------------------------------
# Guard placement and demotion (paper §4)
# ----------------------------------------------------------------------


def _place_guard(tree: "BVTree", entry: Entry) -> None:
    """Place a detached entry at its canonical position (paper §4).

    A single root descent: the entry lodges as a guard in the first node
    where it straddles an unshadowed higher-level entry, and otherwise
    reaches index level ``entry.level + 1`` and is inserted as a native
    (fully demoted).  Any same-level guard the arrival shadows is
    displaced and recursively becomes the next placement candidate (§4's
    guard-replacement rule).
    """
    node_page, as_guard = placement_walk(tree, entry.key, entry.level)
    if as_guard:
        _lodge_guard(tree, entry, node_page)
        return
    node: IndexNode = tree.store.read(node_page)
    node.add(entry)
    tree.store.write(node_page, node)
    tree.stats.demotions += 1
    tracer = tree.tracer
    if tracer.structural:
        tracer.emit(
            DEMOTION,
            key=entry.key.bit_string(),
            level=entry.level,
            to_page=node_page,
        )
    _check_overflow(tree, node_page)


def _lodge_guard(tree: "BVTree", entry: Entry, node_page: int) -> None:
    """Add a guard to a node, displacing same-level guards it shadows."""
    node: IndexNode = tree.store.read(node_page)
    node.add(entry)
    displaced = [
        other
        for other in node.entries
        if other.level == entry.level
        and other is not entry
        and other.key.encloses(entry.key)
        and not justified(tree, other, node)
    ]
    for other in displaced:
        node.remove(other)
    tree.store.write(node_page, node)
    for other in displaced:
        _place_guard(tree, other)
    if displaced:
        _demote_unjustified(tree, node_page)
    _check_overflow(tree, node_page)
