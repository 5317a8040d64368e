"""Deletion: merging and redistribution (paper §5).

The paper's observation is that deletion reduces to the same machinery as
insertion: an underflowing region merges with a partner, and if the merged
population overflows it is re-split by the ordinary balanced split — which
is redistribution with the 1/3 guarantee built in.

Partner choice follows §5's rule: "if there exists an r_x which directly
encloses s_x, then r_x and s_x can merge"; else a region the underflowing
one directly encloses; else the buddy (the sibling half of its block).
Direct enclosure is evaluated *canonically* against the tree's key
registry: the partner is the longest same-level proper prefix anywhere in
the tree, with no key in between.

The subtlety the paper leaves to [Fre94] is that **merging grows the
surviving region's extent**: the dropped key may have shadowed the
survivor with respect to a higher-level region, and without that shadow
the survivor now straddles the higher region's boundary.  The dual of §4's
demotion applies — the survivor is re-placed by the canonical placement
walk, lodging as a guard at the branch point it now straddles, *before*
the victim's population is handed over.  Merges that would leave a node
without native entries are deferred instead (counted in
``stats.deferred_merges``); they are retried whenever the page underflows
again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import KeyNotFoundError, TreeInvariantError
from repro.core.descent import find_owner, locate, step
from repro.core.entry import Entry
from repro.core.guards import GuardSet
from repro.core.insert import _check_overflow, _place_guard, split_data_page
from repro.core.node import DataPage, IndexNode
from repro.core.placement import canonical_encloser, placement_walk
from repro.obs.events import MERGE, REDISTRIBUTE

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tree import BVTree


def delete_point(tree: "BVTree", point: Sequence[float]) -> Any:
    """Remove the record at ``point``; merge the page if it underflows."""
    path = tree.space.point_path(point)
    found = locate(tree, path)
    page: DataPage = tree.store.writable(found.entry.page)
    record = page.get(path)
    if record is None:
        raise KeyNotFoundError(f"no record at {tuple(point)}")
    page.delete(path)
    tree.store.write(found.entry.page, page)
    tree.stats.deletes += 1
    tree.count -= 1
    if found.entry.page != tree.root_page and tree.policy.data_underflows(
        len(page)
    ):
        _merge_region(tree, found.entry)
    _retry_deferred(tree)
    return record[1]


def _retry_deferred(tree: "BVTree", budget: int = 2) -> None:
    """Re-attempt a few previously deferred merges.

    A merge defers when its moment is wrong (the victim carried its node's
    whole partition, or no safe partner existed *yet*); later deletions
    usually unblock it.  Without retries an empty page whose merge was
    deferred would linger forever, since merges are only triggered by
    deletions that touch a page.
    """
    for _ in range(budget):
        if not tree.merge_retry:
            return
        level, key = tree.merge_retry.pop()
        entry = tree.registered(level, key)
        if entry is None:
            continue
        if level == 0:
            page = tree.store.read(entry.page)
            if entry.page != tree.root_page and tree.policy.data_underflows(
                len(page)
            ):
                _merge_region(tree, entry)
        else:
            node = tree.store.read(entry.page)
            if tree.policy.index_underflows(node):
                _merge_region(tree, entry)


# ----------------------------------------------------------------------
# Merge orchestration
# ----------------------------------------------------------------------


def _merge_region(tree: "BVTree", entry: Entry, depth: int = 0) -> None:
    """Merge an underflowing region with a partner (data or index level)."""
    if depth > 4:  # safety bound; repeated merges converge long before this
        return
    encloser = canonical_encloser(tree, entry.level, entry.key)
    if encloser is not None and _try_absorb(tree, encloser, entry, depth):
        return
    hole = _find_hole(tree, entry)
    if hole is not None and _try_absorb(tree, entry, hole, depth):
        return
    if _try_merge_buddies(tree, entry, depth):
        return
    if encloser is not None and _merge_owner_then_retry(tree, entry, depth):
        return
    tree.stats.deferred_merges += 1
    tree.merge_retry.add((entry.level, entry.key))


def _merge_owner_then_retry(tree: "BVTree", entry: Entry, depth: int) -> bool:
    """Unblock a last-native victim by merging its node's region first.

    When ``entry`` cannot be absorbed because it carries its node's whole
    partition, merging the node's own region re-homes ``entry`` into the
    enclosing node, after which the absorb can be retried.
    """
    owner_page = find_owner(tree, entry)
    if owner_page is None or owner_page == tree.root_page:
        return False
    owner_entry = _entry_of(tree, owner_page)
    if owner_entry is None:
        return False
    _merge_region(tree, owner_entry, depth + 1)
    encloser = canonical_encloser(tree, entry.level, entry.key)
    return encloser is not None and _try_absorb(
        tree, encloser, entry, depth + 1
    )


def _find_hole(tree: "BVTree", entry: Entry) -> Entry | None:
    """A same-level region whose canonical direct encloser is ``entry``."""
    best: Entry | None = None
    for key, candidate in tree.keys.get(entry.level, {}).items():
        if candidate is entry or not entry.key.encloses(key):
            continue
        if best is not None and best.key.nbits <= key.nbits:
            continue
        if canonical_encloser(tree, entry.level, key) is entry:
            best = candidate
    return best


# ----------------------------------------------------------------------
# Absorption (encloser and hole merges)
# ----------------------------------------------------------------------


def _try_absorb(
    tree: "BVTree", into: Entry, victim: Entry, depth: int, force: bool = False
) -> bool:
    """Absorb ``victim`` into its canonical direct encloser ``into``.

    Returns False (tree unchanged) when a safety check fails.  Order of
    operations matters: the victim's key leaves the registry first, so
    the placement walk sees the post-merge key set; the survivor is moved
    to its new canonical position next (over-placement is benign while
    the victim entry still routes its own records); only then does the
    population move and the victim entry disappear.
    """
    victim_owner = find_owner(tree, victim)
    if victim_owner is None:
        raise TreeInvariantError("cannot absorb the root region")
    if not force and not _safe_to_drop(tree, victim, victim_owner):
        return False
    tree.unregister_entry(victim)
    into_owner = find_owner(tree, into)
    target_page, _ = placement_walk(tree, into.key, into.level)
    if target_page != into_owner and not _safe_to_detach(
        tree, into, into_owner
    ):
        tree.register_entry(victim)  # roll back
        return False

    if target_page != into_owner:
        owner_node: IndexNode = tree.store.writable(into_owner)
        owner_node.remove(into)
        tree.store.write(into_owner, owner_node)
        _place_guard(tree, into)
        # Re-placing ``into`` can cascade splits that move the victim's
        # entry; re-verify the drop against its *current* owner.  On
        # failure the merge aborts: the victim returns to the registry,
        # and ``into``'s (over-)placement is left as is — an entry above
        # its canonical node is still found by every search.
        if not force and not _safe_to_drop(
            tree, victim, find_owner(tree, victim)
        ):
            tree.register_entry(victim)
            return False

    tree.stats.merges += 1
    tracer = tree.tracer
    if tracer.structural:
        # Co-located with the stats bump: trace replay must reproduce the
        # OpCounters delta exactly (the integration tests assert this).
        tracer.emit(
            MERGE,
            mode="absorb",
            level=victim.level,
            key=victim.key.bit_string(),
            into_key=into.key.bit_string(),
        )
    if victim.level == 0:
        into_page: DataPage = tree.store.writable(into.page)
        victim_page: DataPage = tree.store.read(victim.page)
        into_page.absorb(victim_page)
        tree.store.write(into.page, into_page)
        _remove_entry(tree, victim, find_owner(tree, victim))
        if tree.policy.data_overflows(len(into_page)):
            tree.stats.redistributions += 1
            if tracer.structural:
                tracer.emit(
                    REDISTRIBUTE, level=0, key=into.key.bit_string()
                )
            split_data_page(tree, into)
        elif tree.policy.data_underflows(len(into_page)) and (
            find_owner(tree, into) is not None
        ):
            _merge_region(tree, into, depth + 1)
    else:
        into_node: IndexNode = tree.store.writable(into.page)
        victim_node: IndexNode = tree.store.read(victim.page)
        for moved in victim_node.entries:
            into_node.add(moved)
        tree.store.write(into.page, into_node)
        _remove_entry(tree, victim, find_owner(tree, victim))
        if tree.policy.index_overflows(into_node):
            tree.stats.redistributions += 1
            if tracer.structural:
                tracer.emit(
                    REDISTRIBUTE,
                    level=into.level,
                    key=into.key.bit_string(),
                )
            _check_overflow(tree, into.page)
        elif tree.policy.index_underflows(into_node) and (
            find_owner(tree, into) is not None
        ):
            _merge_region(tree, into, depth + 1)
    return True


# ----------------------------------------------------------------------
# Buddy merges
# ----------------------------------------------------------------------


def _try_merge_buddies(tree: "BVTree", entry: Entry, depth: int) -> bool:
    """Fuse ``entry`` with the sibling half of its block, if one exists.

    The two halves tile the parent block exactly, so the merged region's
    extent is precisely their union and no other region's extent changes.
    The merged entry is still placed by the canonical walk: without the
    halves, the parent key may straddle a higher-level key that extends
    one of them.
    """
    if entry.key.nbits == 0:
        return False
    buddy = tree.registered(entry.level, entry.key.sibling())
    if buddy is None:
        return False
    parent_key = entry.key.parent()
    if tree.registered(entry.level, parent_key) is not None:
        return False
    entry_owner = find_owner(tree, entry)
    buddy_owner = find_owner(tree, buddy)
    if entry_owner is None or buddy_owner is None:
        return False
    if not _safe_to_drop(tree, buddy, buddy_owner):
        return False

    tree.unregister_entry(entry)
    tree.unregister_entry(buddy)
    target_page, as_guard = placement_walk(tree, parent_key, entry.level)
    # The merged entry replaces the halves; check no owner is emptied.
    losses: dict[int, int] = {}
    for half, owner_page in ((entry, entry_owner), (buddy, buddy_owner)):
        node: IndexNode = tree.store.read(owner_page)
        if half.level == node.index_level - 1:
            losses[owner_page] = losses.get(owner_page, 0) + 1
    for owner_page, lost in losses.items():
        node = tree.store.read(owner_page)
        gained = 1 if (target_page == owner_page and not as_guard) else 0
        if node.native_count() - lost + gained < 1:
            tree.register_entry(entry)
            tree.register_entry(buddy)
            return False

    tree.stats.merges += 1
    tracer = tree.tracer
    if tracer.structural:
        tracer.emit(
            MERGE,
            mode="buddy",
            level=entry.level,
            key=buddy.key.bit_string(),
            into_key=parent_key.bit_string(),
        )
    for half, owner_page in ((entry, entry_owner), (buddy, buddy_owner)):
        node = tree.store.writable(owner_page)
        node.remove(half)
        tree.store.write(owner_page, node)
    if entry.level == 0:
        page: DataPage = tree.store.writable(entry.page)
        buddy_page: DataPage = tree.store.read(buddy.page)
        page.absorb(buddy_page)
        tree.store.write(entry.page, page)
    else:
        node = tree.store.writable(entry.page)
        buddy_node: IndexNode = tree.store.read(buddy.page)
        for moved in buddy_node.entries:
            node.add(moved)
        tree.store.write(entry.page, node)
    tree.store.free(buddy.page)
    merged = Entry(parent_key, entry.level, entry.page)
    tree.register_entry(merged)
    _place_guard(tree, merged)
    for owner_page in {entry_owner, buddy_owner}:
        _after_removal(tree, owner_page)
    if merged.level == 0:
        page = tree.store.read(merged.page)
        if tree.policy.data_overflows(len(page)):
            tree.stats.redistributions += 1
            if tracer.structural:
                tracer.emit(
                    REDISTRIBUTE, level=0, key=merged.key.bit_string()
                )
            split_data_page(tree, merged)
    else:
        node = tree.store.read(merged.page)
        if tree.policy.index_overflows(node):
            tree.stats.redistributions += 1
            if tracer.structural:
                tracer.emit(
                    REDISTRIBUTE,
                    level=merged.level,
                    key=merged.key.bit_string(),
                )
            _check_overflow(tree, merged.page)
    return True


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------


def _safe_to_drop(tree: "BVTree", victim: Entry, owner_page: int) -> bool:
    """True if removing ``victim`` cannot empty its node of natives."""
    owner: IndexNode = tree.store.read(owner_page)
    if victim.level < owner.index_level - 1:
        return True  # guards do not carry a node's partition
    return owner.native_count() >= 2


def _safe_to_detach(tree: "BVTree", entry: Entry, owner_page: int) -> bool:
    """True if moving ``entry`` away cannot empty its node of natives."""
    return _safe_to_drop(tree, entry, owner_page)


def _remove_entry(tree: "BVTree", victim: Entry, owner_page: int) -> None:
    """Remove an already-unregistered entry, free its page, handle underflow."""
    owner: IndexNode = tree.store.writable(owner_page)
    owner.remove(victim)
    tree.store.free(victim.page)
    tree.store.write(owner_page, owner)
    _after_removal(tree, owner_page)


def _after_removal(tree: "BVTree", node_page: int) -> None:
    """Shrink the root or merge an index node after an entry was removed."""
    _shrink_root(tree)
    if node_page not in tree.store:
        return  # the node was the root and has been collapsed away
    node: IndexNode = tree.store.read(node_page)
    if node_page == tree.root_page:
        return
    if node.native_count() == 0:
        _dissolve(tree, node_page)
        return
    if tree.policy.index_underflows(node):
        entry = _entry_of(tree, node_page)
        if entry is not None:
            _merge_region(tree, entry)



def _dissolve(tree: "BVTree", node_page: int) -> None:
    """Remove a node whose region lost its whole partition.

    All of the node's native sub-regions were absorbed by regions outside
    it, so the region itself must merge away too: its remaining entries
    (guards, if any) move into its canonical encloser's node and its own
    entry disappears — recursively, since that removal can empty the next
    node up.  ``force=True`` bypasses the last-native deferral: deferring
    here would leave a node no search can pass through.

    When no same-level encloser exists, a hole or buddy merge restores
    the node's natives instead (the region swallows a region it encloses).
    """
    entry = _entry_pointing_at(tree, node_page)
    if entry is None:
        raise TreeInvariantError(
            f"native-empty node {node_page} has no entry (root corruption)"
        )
    encloser = canonical_encloser(tree, entry.level, entry.key)
    if encloser is not None and _try_absorb(
        tree, encloser, entry, depth=0, force=True
    ):
        return
    hole = _find_hole(tree, entry)
    if hole is not None and _try_absorb(tree, entry, hole, depth=0):
        return
    if _try_merge_buddies(tree, entry, depth=0):
        return
    raise TreeInvariantError(
        f"cannot dissolve native-empty node {node_page} ({entry!r})"
    )


def _entry_pointing_at(tree: "BVTree", page: int) -> Entry | None:
    """The entry whose subtree root is ``page`` (full scan; rare path)."""
    stack = [tree.root_entry()]
    while stack:
        current = stack.pop()
        if current.level == 0:
            continue
        node: IndexNode = tree.store.read(current.page)
        for child in node.entries:
            if child.page == page:
                return child
            stack.append(child)
    return None

def _shrink_root(tree: "BVTree") -> None:
    """Collapse trivial roots: a root with a single whole-space entry."""
    while tree.height >= 1:
        root: IndexNode = tree.store.read(tree.root_page)
        if len(root.entries) != 1:
            return
        only = root.entries[0]
        if only.level != tree.height - 1 or only.key.nbits != 0:
            return
        tree.unregister_entry(only)  # the region becomes virtual again
        tree.store.free(tree.root_page)
        tree.root_page = only.page
        tree.height -= 1


def _entry_of(tree: "BVTree", node_page: int) -> Entry | None:
    """The entry pointing at ``node_page``, or None for the root."""
    if node_page == tree.root_page:
        return None
    node: IndexNode = tree.store.read(node_page)
    probe = min(node.entries, key=lambda e: e.key.nbits)
    current = tree.root_entry()
    guards = GuardSet()
    while current.level > 0:
        if current.page == node_page:
            return current
        parent: IndexNode = tree.store.read(current.page)
        current, _ = step(
            parent, current.page, probe.key.value, probe.key.nbits, guards
        )
    raise TreeInvariantError(f"entry of node {node_page} not found")
