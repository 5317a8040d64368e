"""The BANG file with a balanced directory ([Fre87], paper Figure 1-3).

The BANG file partitions both data and directory pages by balanced binary
partitions and represents enclosure (holey regions) — everything the
BV-tree does, *except* promotion.  The paper's Figure 1-3 shows the
consequence: the best-balance boundary of a directory split may cut a
lower-level region, and without guards the only option is to **force a
split** of that region on the same boundary, cascading one forced split
per level all the way to a data page.

``stats.forced_splits`` counts those cascades.  The forced splits also
have no freedom of position, so — exactly as the paper argues — minimum
occupancy cannot be maintained; the occupancy statistics expose that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    TreeInvariantError,
)
from repro.core.entry import Entry
from repro.core.node import DataPage, IndexNode
from repro.core.query import QueryResult
from repro.core.split import choose_split
from repro.geometry.bitgrid import key_intersects, query_cell_bounds
from repro.geometry.rect import Rect
from repro.geometry.region import ROOT_KEY, RegionKey
from repro.geometry.space import DataSpace
from repro.storage.pager import PageStore


@dataclass
class BangStats:
    """Structural event counters for the BANG file."""

    data_splits: int = 0
    index_splits: int = 0
    forced_splits: int = 0
    max_cascade: int = 0


class BangFile:
    """A BANG file whose directory is kept balanced by forced splits.

    Shares the BV-tree's node and geometry machinery; the only difference
    is what happens when a directory split boundary cuts a region: here it
    is split on the spot (no promotion), recursively.
    """

    def __init__(
        self,
        space: DataSpace,
        data_capacity: int = 16,
        fanout: int = 16,
        page_bytes: int = 1024,
        store: PageStore | None = None,
    ):
        if data_capacity < 2:
            raise TreeInvariantError(
                f"data pages must hold at least 2 points, got {data_capacity}"
            )
        if fanout < 4:
            raise TreeInvariantError(f"fan-out must be at least 4, got {fanout}")
        self.space = space
        self.data_capacity = data_capacity
        self.fanout = fanout
        self.store = store if store is not None else PageStore(page_bytes)
        self.stats = BangStats()
        self.count = 0
        self.height = 0
        self.root_page = self.store.allocate(DataPage(), size_class=0)
        self._cascade = 0

    # ------------------------------------------------------------------
    # Descent — longest prefix, no guards (every entry is in its node)
    # ------------------------------------------------------------------

    def _descend(self, path_bits: int, path: int) -> list[tuple[int, Entry | None]]:
        """Pages from root to data page, with the entry chosen at each."""
        chain: list[tuple[int, Entry | None]] = [(self.root_page, None)]
        node = self.store.read(self.root_page)
        while isinstance(node, IndexNode):
            best = node.best_native_match(path, path_bits)
            if best is None:
                raise TreeInvariantError("no region covers the search path")
            chain.append((best.page, best))
            node = self.store.read(best.page)
        return chain

    def insert(
        self, point: Sequence[float], value: Any = None, replace: bool = False
    ) -> None:
        """Insert one record, splitting pages upward as needed."""
        pt = tuple(float(x) for x in point)
        path = self.space.point_path(pt)
        chain = self._descend(self.space.path_bits, path)
        page_id, _ = chain[-1]
        page: DataPage = self.store.read(page_id)
        had = path in page.records
        if had and not replace:
            raise DuplicateKeyError(f"point {pt} already present")
        page.insert(path, pt, value, replace=replace)
        self.store.write(page_id, page)
        if not had:
            self.count += 1
        if len(page.records) > self.data_capacity:
            self._cascade = 0
            self._split_data(chain)

    def get(self, point: Sequence[float]) -> Any:
        """The value stored at ``point``."""
        path = self.space.point_path(point)
        chain = self._descend(self.space.path_bits, path)
        page: DataPage = self.store.read(chain[-1][0])
        record = page.get(path)
        if record is None:
            raise KeyNotFoundError(f"no record at {tuple(point)}")
        return record[1]

    def search_cost(self, point: Sequence[float]) -> int:
        """Pages visited by an exact-match search."""
        return len(self._descend(self.space.path_bits, self.space.point_path(point)))

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------

    def _entry_key(self, chain_entry: Entry | None) -> RegionKey:
        return ROOT_KEY if chain_entry is None else chain_entry.key

    def _split_data(self, chain: list[tuple[int, Entry | None]]) -> None:
        page_id, entry = chain[-1]
        page: DataPage = self.store.read(page_id)
        base = self._entry_key(entry)
        items = [(p, self.space.path_bits) for p in page.paths()]
        split_key = choose_split(base, items)
        inner = DataPage()
        for p in list(page.paths()):
            if split_key.contains_path(p, self.space.path_bits):
                inner.records[p] = page.records.pop(p)
        inner_page = self.store.allocate(inner, size_class=0)
        self.store.write(page_id, page)
        self.stats.data_splits += 1
        self._add_to_parent(chain[:-1], Entry(split_key, 0, inner_page))

    def _add_to_parent(
        self, chain: list[tuple[int, Entry | None]], new_entry: Entry
    ) -> None:
        if not chain:
            # The split page was the root: grow the tree.
            old_root_level = new_entry.level
            root = IndexNode(
                old_root_level + 1,
                [Entry(ROOT_KEY, old_root_level, self.root_page), new_entry],
            )
            self.root_page = self.store.allocate(root, size_class=1)
            self.height += 1
            return
        node_page, node_entry = chain[-1]
        node: IndexNode = self.store.read(node_page)
        node.add(new_entry)
        self.store.write(node_page, node)
        if len(node.entries) > self.fanout:
            self._split_index(chain)

    @staticmethod
    def _straddles(
        entries: list[Entry], entry: Entry, boundary: RegionKey
    ) -> bool:
        """Does ``entry``'s holey region actually cross ``boundary``?

        Only the *directly* enclosing region does: if another same-level
        entry sits between (its block covering all of the boundary's
        block), the outer region's holey extent has nothing inside the
        boundary and it belongs entirely to the outer side.
        """
        return not any(
            other is not entry
            and other.level == entry.level
            and entry.key.encloses(other.key)
            and other.key.is_prefix_of(boundary)
            for other in entries
        )

    def _split_index(self, chain: list[tuple[int, Entry | None]]) -> None:
        node_page, entry = chain[-1]
        node: IndexNode = self.store.read(node_page)
        base = self._entry_key(entry)
        items = [(e.key.value, e.key.nbits) for e in node.entries]
        split_key = choose_split(base, items)
        self.stats.index_splits += 1

        inner_entries: list[Entry] = []
        outer_entries: list[Entry] = []
        for e in list(node.entries):
            if split_key.is_prefix_of(e.key):
                inner_entries.append(e)
            elif e.key.encloses(split_key) and self._straddles(
                node.entries, e, split_key
            ):
                # Figure 1-3: the boundary cuts this region.  Force-split
                # it (and, recursively, its subtree) on the same boundary.
                inner_part, outer_part = self._force_split(e, split_key)
                inner_entries.append(inner_part)
                outer_entries.append(outer_part)
            else:
                outer_entries.append(e)
        self.stats.max_cascade = max(self.stats.max_cascade, self._cascade)

        inner_node = IndexNode(node.index_level, inner_entries)
        node.entries = outer_entries
        inner_page = self.store.allocate(inner_node, size_class=1)
        self.store.write(node_page, node)
        self._add_to_parent(
            chain[:-1], Entry(split_key, node.index_level, inner_page)
        )

    def _force_split(
        self, entry: Entry, boundary: RegionKey
    ) -> tuple[Entry, Entry]:
        """Split a region about an imposed boundary (cascades downward).

        The inner part takes the boundary key; the outer keeps the
        region's key.  There is no freedom of position, so the resulting
        populations are arbitrary — the unbounded-update, no-minimum-
        occupancy behaviour the BV-tree's promotion avoids.
        """
        self.stats.forced_splits += 1
        self._cascade += 1
        node = self.store.read(entry.page)
        if isinstance(node, DataPage):
            inner = DataPage()
            for p in list(node.records):
                if boundary.contains_path(p, self.space.path_bits):
                    inner.records[p] = node.records.pop(p)
            inner_page = self.store.allocate(inner, size_class=0)
            self.store.write(entry.page, node)
            return (
                Entry(boundary, 0, inner_page),
                Entry(entry.key, 0, entry.page),
            )
        inner_entries: list[Entry] = []
        outer_entries: list[Entry] = []
        for child in list(node.entries):
            if boundary.is_prefix_of(child.key):
                inner_entries.append(child)
            elif child.key.encloses(boundary) and self._straddles(
                node.entries, child, boundary
            ):
                ci, co = self._force_split(child, boundary)
                inner_entries.append(ci)
                outer_entries.append(co)
            else:
                outer_entries.append(child)
        if not inner_entries:
            inner_entries = [self._empty_region(node.index_level - 1, boundary)]
        if not outer_entries:
            outer_entries = [self._empty_region(node.index_level - 1, entry.key)]
        inner_node = IndexNode(node.index_level, inner_entries)
        node.entries = outer_entries
        inner_page = self.store.allocate(inner_node, size_class=1)
        self.store.write(entry.page, node)
        return (
            Entry(boundary, entry.level, inner_page),
            Entry(entry.key, entry.level, entry.page),
        )

    def _empty_region(self, level: int, key: RegionKey) -> Entry:
        """A point-free region covering a block a forced split vacated.

        Forced splits can leave one side with no population at all; the
        structure still needs a region there for coverage.  These empty
        pages are part of the pathology being demonstrated: they are pure
        occupancy loss.
        """
        if level == 0:
            return Entry(key, 0, self.store.allocate(DataPage(), size_class=0))
        child = self._empty_region(level - 1, key)
        node = IndexNode(level, [child])
        return Entry(key, level, self.store.allocate(node, size_class=1))

    # ------------------------------------------------------------------
    # Queries and introspection
    # ------------------------------------------------------------------

    def range_query(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> QueryResult:
        """All records in the half-open box."""
        rect = Rect(lows, highs)
        space = self.space
        bounds = query_cell_bounds(space, rect)
        result = QueryResult()
        stack: list[tuple[int, RegionKey]] = [(self.root_page, ROOT_KEY)]
        while stack:
            page_id, key = stack.pop()
            if not key_intersects(
                key.value, key.nbits, space.ndim, space.resolution, bounds
            ):
                continue
            result.pages_visited += 1
            node = self.store.read(page_id)
            if isinstance(node, DataPage):
                result.data_pages_visited += 1
                for point, value in node.records.values():
                    if rect.contains_point(point):
                        result.records.append((point, value))
            else:
                stack.extend((e.page, e.key) for e in node.entries)
        return result

    def occupancies(self) -> tuple[list[int], list[int]]:
        """(data page sizes, index node entry-counts)."""
        data: list[int] = []
        index: list[int] = []
        stack = [self.root_page]
        while stack:
            node = self.store.read(stack.pop())
            if isinstance(node, DataPage):
                data.append(len(node.records))
            else:
                index.append(len(node.entries))
                stack.extend(e.page for e in node.entries)
        return data, index

    def check(self) -> None:
        """Verify record placement (longest prefix within each node)."""
        total = 0
        stack: list[tuple[int, RegionKey]] = [(self.root_page, ROOT_KEY)]
        while stack:
            page_id, key = stack.pop()
            node = self.store.read(page_id)
            if isinstance(node, DataPage):
                total += len(node.records)
                for p in node.records:
                    if not key.contains_path(p, self.space.path_bits):
                        raise TreeInvariantError(
                            f"record outside its region {key!r}"
                        )
                continue
            for e in node.entries:
                if not key.is_prefix_of(e.key):
                    raise TreeInvariantError(
                        f"child key {e.key!r} does not extend region {key!r}"
                    )
                stack.append((e.page, e.key))
        if total != self.count:
            raise TreeInvariantError(f"count {self.count} != records {total}")

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"BangFile({self.count} records, height={self.height})"
