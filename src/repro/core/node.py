"""Node payloads: index nodes and data pages.

Nodes are stored as live objects in a :class:`~repro.storage.PageStore`;
see that package's docstring for why no byte serialisation is simulated.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.errors import DuplicateKeyError, TreeInvariantError
from repro.core.entry import Entry
from repro.geometry.region import RegionKey


class IndexNode:
    """An index node at a fixed index level.

    Entries of partition level ``index_level - 1`` are native; entries of
    lower levels are guards (paper §2).  The node does not know its own
    region key — that is held by the entry pointing at it, exactly as in a
    B-tree, and passed in by the algorithms that need it.
    """

    __slots__ = ("index_level", "entries", "_keyset")

    def __init__(self, index_level: int, entries: Sequence[Entry] = ()):
        if index_level < 1:
            raise TreeInvariantError(
                f"index levels start at 1, got {index_level}"
            )
        self.index_level = index_level
        self.entries: list[Entry] = list(entries)
        self._keyset: set[tuple[int, RegionKey]] = set()
        for entry in self.entries:
            self._check_level(entry)
            self._add_token(entry)

    def _check_level(self, entry: Entry) -> None:
        if entry.level > self.index_level - 1:
            raise TreeInvariantError(
                f"entry of level {entry.level} cannot live in a node of "
                f"index level {self.index_level}"
            )

    # ------------------------------------------------------------------
    # Entry management
    # ------------------------------------------------------------------

    def add(self, entry: Entry) -> None:
        """Insert an entry (no capacity check — the tree enforces that).

        The duplicate check is set-backed: filling a node of ``n`` entries
        is O(n), not the O(n²) a linear scan per add would cost (nodes
        grow one placed entry at a time; docs/PERFORMANCE.md has the
        micro-benchmark).
        """
        self._check_level(entry)
        self._add_token(entry)
        self.entries.append(entry)

    def _add_token(self, entry: Entry) -> None:
        token = (entry.level, entry.key)
        if token in self._keyset:
            raise TreeInvariantError(
                f"duplicate level-{entry.level} key {entry.key!r} in node"
            )
        self._keyset.add(token)

    def remove(self, entry: Entry) -> None:
        """Remove an entry object from the node."""
        try:
            self.entries.remove(entry)
        except ValueError:
            raise TreeInvariantError(f"{entry!r} not present in node") from None
        self._keyset.discard((entry.level, entry.key))

    def natives(self) -> list[Entry]:
        """The unpromoted entries (level ``index_level - 1``)."""
        level = self.index_level - 1
        return [e for e in self.entries if e.level == level]

    def guards(self) -> list[Entry]:
        """The promoted entries (level below ``index_level - 1``)."""
        level = self.index_level - 1
        return [e for e in self.entries if e.level < level]

    def native_count(self) -> int:
        """Number of unpromoted entries."""
        level = self.index_level - 1
        return sum(1 for e in self.entries if e.level == level)

    def guard_count(self) -> int:
        """Number of promoted entries."""
        return len(self.entries) - self.native_count()

    def find(self, key: RegionKey, level: int) -> Entry | None:
        """The entry with exactly this key and level, if present."""
        for entry in self.entries:
            if entry.level == level and entry.key == key:
                return entry
        return None

    def entries_of_level(self, level: int) -> Iterator[Entry]:
        """Iterate the entries labelled with one partition level."""
        return (e for e in self.entries if e.level == level)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def best_native_match(self, path: int, path_bits: int) -> Entry | None:
        """Longest-prefix native entry containing the path, if any."""
        best: Entry | None = None
        level = self.index_level - 1
        for entry in self.entries:
            if entry.level != level:
                continue
            if not entry.matches_path(path, path_bits):
                continue
            if best is None or entry.key.nbits > best.key.nbits:
                best = entry
        return best

    def matching_guards(self, path: int, path_bits: int) -> list[Entry]:
        """All guard entries whose block contains the path."""
        level = self.index_level - 1
        return [
            e
            for e in self.entries
            if e.level < level and e.matches_path(path, path_bits)
        ]

    def clone(self) -> "IndexNode":
        """A copy sharing no mutable state with this node.

        Entries are re-created (a split relinks ``entry.page`` in place);
        their immutable ``RegionKey`` objects are shared.
        """
        return IndexNode(
            self.index_level,
            [Entry(e.key, e.level, e.page) for e in self.entries],
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (
            f"IndexNode(level={self.index_level}, "
            f"natives={self.native_count()}, guards={self.guard_count()})"
        )


class DataPage:
    """A data page: at most ``P`` records keyed by their full bit paths.

    Two points with identical bit paths at the space's resolution are the
    same key to the index; the page therefore maps ``path -> (point, value)``.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: dict[int, tuple[tuple[float, ...], Any]] = {}

    def insert(
        self,
        path: int,
        point: tuple[float, ...],
        value: Any,
        replace: bool = False,
    ) -> None:
        """Store a record; duplicates raise unless ``replace`` is set."""
        if not replace and path in self.records:
            raise DuplicateKeyError(
                f"a record with the bit path of point {point} already exists"
            )
        self.records[path] = (point, value)

    def delete(self, path: int) -> tuple[tuple[float, ...], Any]:
        """Remove and return the record with this path (KeyError if absent)."""
        return self.records.pop(path)

    def get(self, path: int) -> tuple[tuple[float, ...], Any] | None:
        """The (point, value) stored under this path, or None."""
        return self.records.get(path)

    def paths(self) -> Iterator[int]:
        """Iterate the bit paths stored in the page."""
        return iter(self.records)

    def extract_block(self, key: RegionKey, path_bits: int) -> "DataPage":
        """Split out the records inside ``key``'s block into a new page.

        Used by data-page splits; the moved records keep their relative
        order.  The columnar subclass overrides this with a contiguous
        slice of its sorted path column.
        """
        inner = DataPage()
        for p in [p for p in self.records if key.contains_path(p, path_bits)]:
            inner.records[p] = self.records.pop(p)
        return inner

    def absorb(self, other: "DataPage") -> None:
        """Take over every record of ``other`` (merge / absorb path)."""
        self.records.update(other.records)

    def fill_sorted(
        self,
        paths: Sequence[int],
        coords: Sequence[float],
        values: Sequence[Any],
    ) -> None:
        """Append one run of records, given as column slices.

        ``paths`` ascend and follow every path already on the page;
        ``coords`` holds ``len(coords) // len(paths)`` coordinates per
        record and ``values`` one value per record (the bulk loader's
        contract: it fills a page one sorted range at a time).
        """
        if not paths:
            return
        nd = len(coords) // len(paths)
        points = zip(*[iter(coords)] * nd)
        self.records.update(zip(paths, zip(points, values)))

    def clone(self) -> "DataPage":
        """A copy sharing no mutable container with this page (the
        record tuples themselves are immutable and shared)."""
        page = DataPage()
        page.records.update(self.records)
        return page

    def changes_since(self, base: "DataPage") -> tuple[
        list[tuple[int, tuple[tuple[float, ...], Any]]], list[int]
    ]:
        """``(added_or_replaced, removed_paths)`` from ``base`` to this
        page; ``base`` is an earlier :meth:`clone` of it (the durable
        store's delta base)."""
        return diff_records(base.records, self.records)

    def __contains__(self, path: int) -> bool:
        return path in self.records

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"DataPage({len(self.records)} records)"


def diff_records(
    base: dict[int, tuple[tuple[float, ...], Any]],
    current: dict[int, tuple[tuple[float, ...], Any]],
) -> tuple[list[tuple[int, tuple[tuple[float, ...], Any]]], list[int]]:
    """``(added_or_replaced, removed_paths)`` from ``base`` to ``current``."""
    base_get = base.get
    # Unchanged records are the *same* objects (a clone shares the
    # record tuples of a map whose entries are replaced, never
    # mutated), so one identity sweep narrows the page to the few
    # suspects and the classification loop below runs over those alone.
    suspects = [
        (path, record)
        for path, record in current.items()
        if base_get(path) is not record
    ]
    if not suspects and len(base) == len(current):
        return [], []
    added = []
    new_paths = 0
    for path, record in suspects:
        previous = base_get(path)
        if previous is None:
            new_paths += 1
            added.append((path, record))
        elif previous != record:
            added.append((path, record))
    # |base ∩ current| == len(current) - new_paths, so this equality
    # holds exactly when nothing was removed — the common insert case
    # skips the O(page) scan of ``base``.
    if len(base) + new_paths == len(current):
        removed: list[int] = []
    else:
        removed = [path for path in base if path not in current]
    return added, removed
