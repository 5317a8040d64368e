"""Descent machinery: exact-match location with guard sets (paper §3).

The exact-match search descends the index tree from root to leaf, but it
operates on the *partition hierarchy*: at a node of index level ``L`` the
next hop is decided at partition level ``L - 1``, among the node's
unpromoted entries and the level-``L - 1`` member of the guard set carried
down from above.  In-node guards of lower levels join the guard set for use
further down.  Because the next hop is always exactly one partition level
down, **every descent visits exactly ``height + 1`` pages** even though the
index tree is unbalanced — the paper's §6 resolution of the "unbalanced
balanced tree" paradox.

The same stepping rule locates index entries by their region keys (a key is
just a short bit path), which is how update operations find the node that
physically stores an entry — the paper's "single direct descent of the
index tree" for demotions (§4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import TreeInvariantError
from repro.core.entry import Entry
from repro.core.guards import GuardRef, GuardSet
from repro.core.node import IndexNode
from repro.obs.events import DESCENT_STEP, GUARD_HIT
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tree import BVTree


@dataclass
class Locate:
    """Result of locating the data page responsible for a bit path.

    ``owner_page`` is the page of the index node physically storing the
    winning level-0 entry (``None`` when the whole tree is one data page).
    """

    entry: Entry
    owner_page: int | None
    guards: GuardSet
    nodes_visited: int
    max_guard_set: int


def step(
    node: IndexNode,
    node_page: int,
    path: int,
    path_bits: int,
    guards: GuardSet,
    tracer: Tracer | None = None,
) -> tuple[Entry, int]:
    """One descent step: pick the next hop at partition level ``L - 1``.

    Merges the node's matching guards into ``guards``, then compares the
    best-matching native entry with the carried guard of level ``L - 1``
    (which is consumed here — it has returned to its original partition
    level).  Returns the winning entry and the page of the node storing it.

    ``tracer`` (enabled) records each matching guard as a ``guard_hit``;
    the untraced path passes ``None`` and pays nothing.
    """
    if tracer is None:
        for guard in node.matching_guards(path, path_bits):
            guards.merge(guard, node_page)
    else:
        for guard in node.matching_guards(path, path_bits):
            guards.merge(guard, node_page)
            tracer.emit(
                GUARD_HIT,
                level=guard.level,
                key=guard.key.bit_string(),
                node_page=node_page,
            )
    native = node.best_native_match(path, path_bits)
    carried = guards.consume(node.index_level - 1)
    if native is None and carried is None:
        raise TreeInvariantError(
            f"no entry of level {node.index_level - 1} covers the search "
            f"path at index level {node.index_level}"
        )
    if carried is None:
        return native, node_page
    if native is None:
        return carried
    guard_entry, guard_owner = carried
    if guard_entry.key.nbits == native.key.nbits:
        raise TreeInvariantError(
            f"native {native!r} and guard {guard_entry!r} have keys of equal "
            f"length on one path: same-level keys must be unique"
        )
    if guard_entry.key.nbits > native.key.nbits:
        return guard_entry, guard_owner
    return native, node_page


#: An exact-match descent's outcome: the level-0 winner, the page of the
#: index node storing it (``None`` when the tree is one data page), the
#: surviving guard refs keyed by level (the map :meth:`GuardSet.adopt`
#: wraps) and the largest guard-set size seen on the way.
Descent = tuple[Entry, int | None, dict[int, GuardRef], int]


def locate(tree: "BVTree", path: int) -> Locate:
    """Descend from the root to the data page responsible for ``path``.

    Untraced, the tree's page layout runs its own descent (the columnar
    one is fused over flat columns); traced, the generic :func:`descend`
    runs, so ``guard_hit``/``descent_step`` keep their one emitter.  Both
    read the same pages and pick the same winners.
    """
    tracer = tree.tracer
    if tracer.enabled:
        entry, owner_page, guard_map, max_guard_set = descend(
            tree, path, tracer
        )
    else:
        entry, owner_page, guard_map, max_guard_set = (
            tree.page_layout.descend(tree, path)
        )
    # Both descents read one node per index level and raise if a node's
    # level is not the one expected, so a completed descent has read
    # exactly height + 1 pages (the §6 guarantee) — no counter needed.
    return Locate(
        entry=entry,
        owner_page=owner_page,
        guards=GuardSet.adopt(guard_map),
        nodes_visited=tree.height + 1,
        max_guard_set=max_guard_set,
    )


def descend(
    tree: "BVTree", path: int, tracer: Tracer | None = None
) -> Descent:
    """The generic root-to-leaf descent: :func:`step` once per level.

    Works on either page layout; the object layout uses it untraced and
    every traced exact match goes through it with ``tracer`` set.
    """
    path_bits = tree.space.path_bits
    entry = tree.root_entry()
    owner_page: int | None = None
    guards = GuardSet()
    max_guard_set = 0
    read = tree.store.read
    while entry.level > 0:
        node_page = entry.page
        node: IndexNode = read(node_page)
        if node.index_level != entry.level:
            raise TreeInvariantError(
                f"entry of level {entry.level} points at node of index "
                f"level {node.index_level}"
            )
        entry, owner_page = step(node, node_page, path, path_bits, guards, tracer)
        max_guard_set = max(max_guard_set, len(guards))
        if tracer is not None:
            tracer.emit(
                DESCENT_STEP,
                level=node.index_level,
                node_page=node_page,
                chosen_level=entry.level,
                key=entry.key.bit_string(),
                via="guard" if owner_page != node_page else "native",
                guard_set=len(guards),
            )
    return entry, owner_page, guards.level_map(), max_guard_set


def find_owner(tree: "BVTree", entry: Entry) -> int | None:
    """The page of the index node physically storing ``entry``.

    Returns ``None`` if ``entry`` is the tree's virtual root entry.  The
    lookup is a single root-to-owner descent along the entry's region key,
    using the same stepping rule as exact-match search; it is re-computed
    on demand rather than cached because splits and demotions move entries
    between nodes.
    """
    if entry.page == tree.root_page and entry.level == tree.height:
        return None
    current = tree.root_entry()
    guards = GuardSet()
    while True:
        if current.level <= entry.level:
            raise TreeInvariantError(
                f"owner descent for {entry!r} fell through to level "
                f"{current.level} without finding the entry"
            )
        node_page = current.page
        node: IndexNode = tree.store.read(node_page)
        for candidate in node.entries:
            if candidate is entry:
                return node_page
        current, _ = step(
            node, node_page, entry.key.value, entry.key.nbits, guards
        )
