"""A first-partition directory splitter (LSD/Buddy style, [HSW89]/[SK90]).

The paper's §1 critique: these designs avoid cascade splitting "by always
splitting a directory page by the first partition in the binary splitting
sequence — which is the only single partition about which the page can
always be split.  But this is achieved at the price of abandoning all
control over the occupancy of the resulting split index pages".

This implementation is a binary-trie index: data regions are plain blocks
(no enclosure), a data overflow halves the block (re-halving until both
sides are populated), and a directory overflow splits the node's region at
its first binary partition — entries go left or right by their first bit
beyond the node's key, with no balance guarantee whatsoever.  The
occupancy statistics expose the skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    ResolutionExhaustedError,
    TreeInvariantError,
)
from repro.core.node import DataPage
from repro.core.query import QueryResult
from repro.geometry.bitgrid import key_intersects, query_cell_bounds
from repro.geometry.rect import Rect
from repro.geometry.region import ROOT_KEY, RegionKey
from repro.geometry.space import DataSpace
from repro.storage.pager import PageStore


@dataclass
class LSDStats:
    """Structural event counters."""

    data_splits: int = 0
    index_splits: int = 0


class _Directory:
    """A directory node: disjoint block entries (key → page)."""

    __slots__ = ("entries",)

    def __init__(self, entries: list[tuple[RegionKey, int]] | None = None):
        self.entries: list[tuple[RegionKey, int]] = entries or []


class LSDTree:
    """A binary-trie point index with first-partition directory splits."""

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
        self.stats = LSDStats()
        self.count = 0
        self.height = 0
        self.root_page = self.store.allocate(DataPage(), size_class=0)
        self._root_key = ROOT_KEY

    # ------------------------------------------------------------------
    # Descent
    # ------------------------------------------------------------------

    def _descend(self, path: int) -> tuple[list[int], RegionKey]:
        """Pages root→leaf for a bit path, plus the leaf's block key."""
        pages = [self.root_page]
        key = self._root_key
        node = self.store.read(self.root_page)
        while isinstance(node, _Directory):
            for entry_key, child in node.entries:
                if entry_key.contains_path(path, self.space.path_bits):
                    pages.append(child)
                    key = entry_key
                    node = self.store.read(child)
                    break
            else:
                raise TreeInvariantError("no block covers the search path")
        return pages, key

    def insert(
        self, point: Sequence[float], value: Any = None, replace: bool = False
    ) -> None:
        """Insert one record."""
        pt = tuple(float(x) for x in point)
        path = self.space.point_path(pt)
        pages, key = self._descend(path)
        page: DataPage = self.store.read(pages[-1])
        had = path in page.records
        if had and not replace:
            raise DuplicateKeyError(f"point {pt} already present")
        page.insert(path, pt, value, replace=replace)
        self.store.write(pages[-1], page)
        if not had:
            self.count += 1
        if len(page.records) > self.data_capacity:
            self._split_data(pages, key)

    def get(self, point: Sequence[float]) -> Any:
        """The value stored at ``point``."""
        path = self.space.point_path(point)
        pages, _ = self._descend(path)
        page: DataPage = self.store.read(pages[-1])
        record = page.get(path)
        if record is None:
            raise KeyNotFoundError(f"no record at {tuple(point)}")
        return record[1]

    def search_cost(self, point: Sequence[float]) -> int:
        """Pages visited by an exact-match search."""
        return len(self._descend(self.space.point_path(point))[0])

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------

    def _split_data(self, pages: list[int], key: RegionKey) -> None:
        page_id = pages[-1]
        page: DataPage = self.store.read(page_id)
        path_bits = self.space.path_bits
        # Halve the block; while one side is empty, keep an explicit empty
        # block for coverage and re-halve the populated side.  Unlike the
        # BANG split there is no enclosure, so the populations (and the
        # number of pages created) are data-dependent and unbalanced —
        # first-partition splitting has no occupancy control.
        replacements: list[tuple[RegionKey, int]] = []
        current = key
        while True:
            if current.nbits >= path_bits:
                raise ResolutionExhaustedError(
                    f"cannot split block {current!r} further"
                )
            zero, one = current.child(0), current.child(1)
            n_zero = sum(
                1 for p in page.records if zero.contains_path(p, path_bits)
            )
            if n_zero == 0:
                replacements.append(
                    (zero, self.store.allocate(DataPage(), size_class=0))
                )
                current = one
            elif n_zero == len(page.records):
                replacements.append(
                    (one, self.store.allocate(DataPage(), size_class=0))
                )
                current = zero
            else:
                break
        inner = DataPage()
        for p in list(page.records):
            if one.contains_path(p, path_bits):
                inner.records[p] = page.records.pop(p)
        inner_page = self.store.allocate(inner, size_class=0)
        self.store.write(page_id, page)
        self.stats.data_splits += 1
        replacements += [(zero, page_id), (one, inner_page)]
        self._replace_in_parent(pages, page_id, replacements)

    def _replace_in_parent(
        self,
        pages: list[int],
        old_page: int,
        replacements: list[tuple[RegionKey, int]],
    ) -> None:
        if len(pages) == 1:
            root = _Directory(replacements)
            self.root_page = self.store.allocate(root, size_class=1)
            self.height += 1
            self._check_overflow([self.root_page], self._root_key)
            return
        parent_page = pages[-2]
        parent: _Directory = self.store.read(parent_page)
        parent.entries = [
            (k, c) for k, c in parent.entries if c != old_page
        ] + replacements
        self.store.write(parent_page, parent)
        self._check_overflow(pages[:-1], self._node_key(pages[:-1]))

    def _node_key(self, pages: list[int]) -> RegionKey:
        """The block key of the node at the end of the page path."""
        key = self._root_key
        for parent_page, child_page in zip(pages, pages[1:]):
            parent: _Directory = self.store.read(parent_page)
            for k, c in parent.entries:
                if c == child_page:
                    key = k
                    break
        return key

    def _check_overflow(self, pages: list[int], key: RegionKey) -> None:
        node_page = pages[-1]
        node: _Directory = self.store.read(node_page)
        if len(node.entries) <= self.fanout:
            return
        # The first partition of the node's binary sequence — the only
        # boundary guaranteed not to cut any entry (every entry's key
        # extends the node key by at least one bit).
        zero = key.child(0)
        left = [(k, c) for k, c in node.entries if zero.is_prefix_of(k)]
        right = [(k, c) for k, c in node.entries if not zero.is_prefix_of(k)]
        if not left or not right:
            raise TreeInvariantError(
                f"directory block {key!r} has one-sided coverage"
            )
        self.stats.index_splits += 1
        node.entries = left
        right_node = _Directory(right)
        right_page = self.store.allocate(right_node, size_class=1)
        self.store.write(node_page, node)
        self._replace_in_parent(
            pages, node_page, [(zero, node_page), (key.child(1), right_page)]
        )

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
        stack: list[tuple[int, RegionKey]] = [(self.root_page, self._root_key)]
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
                stack.extend((c, k) for k, c in node.entries)
        return result

    def occupancies(self) -> tuple[list[int], list[int]]:
        """(data page sizes, directory entry-counts)."""
        data: list[int] = []
        index: list[int] = []
        stack = [self.root_page]
        while stack:
            node = self.store.read(stack.pop())
            if isinstance(node, DataPage):
                data.append(len(node.records))
            else:
                index.append(len(node.entries))
                stack.extend(c for _, c in node.entries)
        return data, index

    def check(self) -> None:
        """Verify blocks are disjoint and records are inside their block."""
        total = 0
        stack: list[tuple[int, RegionKey]] = [(self.root_page, self._root_key)]
        while stack:
            page_id, key = stack.pop()
            node = self.store.read(page_id)
            if isinstance(node, DataPage):
                total += len(node.records)
                for p in node.records:
                    if not key.contains_path(p, self.space.path_bits):
                        raise TreeInvariantError(
                            f"record outside its block {key!r}"
                        )
                continue
            for i, (k1, _) in enumerate(node.entries):
                if not key.is_prefix_of(k1):
                    raise TreeInvariantError(
                        f"entry block {k1!r} escapes node block {key!r}"
                    )
                for k2, _ in node.entries[i + 1 :]:
                    if not k1.disjoint(k2):
                        raise TreeInvariantError(
                            f"overlapping blocks {k1!r} and {k2!r}"
                        )
            stack.extend((c, k) for k, c in node.entries)
        if total != self.count:
            raise TreeInvariantError(f"count {self.count} != records {total}")

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"LSDTree({self.count} records, height={self.height})"
