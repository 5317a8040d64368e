"""The page layouts, and the columnar one the product runs on.

This is the one module that knows there are two page layouts.  Each has
a :class:`PageLayout` record (:data:`LAYOUTS`): its page constructors and
its untraced exact-match, range and k-NN entry points.  A tree picks its
record once, at construction; the columnar layout is the default
(:data:`DEFAULT_LAYOUT`) and the object layout is kept as the
differential oracle.

The object layout stores a data page as ``dict[path -> (point, value)]``
and an index node as a list of :class:`~repro.core.entry.Entry` objects;
every descent comparison and scan then walks Python objects.  This module
packs the same state into parallel flat columns:

Data pages (:class:`ColumnarDataPage`)::

    _c_paths   sorted bit paths        array('Q')  (list when > 64 bits)
    _c_coords  coordinates, flattened  array('d')  (ndim doubles / record)
    _c_values  payloads                list        (arbitrary objects)

    record i  =  (_c_paths[i],
                  tuple(_c_coords[i*ndim : (i+1)*ndim]),
                  _c_values[i])

Index nodes (:class:`ColumnarIndexNode`) keep the ``entries`` list — the
tree's update algorithms hold :class:`Entry` objects by *identity*
(``find_owner``, the registry, guard lodging), so entries stay the live
handles — and add derived columns:

    _c_org / _c_end    per-entry, per-dimension integer cell origins and
                       ends of the entry's block (entries order) — the
                       O(ndim) intersect / min-dist test that replaces
                       the O(nbits) per-key bit decode
    _c_nat_aligned     native keys aligned to the space's full path
    _c_nat_end           width (sorted; + block end, bit length, Entry)
    _c_nat_nbits         — longest-prefix match becomes one bisect plus
    _c_nat_entries       a short walk-back instead of a linear scan
    _c_g_aligned       guard keys as aligned path intervals (+ bit
    _c_g_end             length and Entry side columns; guards are rare,
    _c_g_nbits           so a tight scan with two integer compares per
    _c_g_entries         guard beats any clever structure)

:func:`locate_columnar` fuses the whole root-to-leaf exact-match descent
into one loop over these columns — same pages read, same winners, same
invariant errors as :func:`repro.core.descent.step` per level, without
the per-node method dispatch or the guard-list materialisation;
:func:`range_query_columnar` and :func:`nearest_columnar` do the same
for range and k-NN queries.

Aligned native keys sort so that every block containing a search path
precedes (or equals) the path's own aligned value, and the *longest*
matching prefix sorts last among the matches — ``bisect_right`` lands
just past it.  Blocks wholly left of the path (``end <= path``) and
natives longer than the query path (demotion descents search with
``path_bits < space.path_bits``) are skipped walking back.

Every column attribute is prefixed ``_c_`` and may be touched **only**
inside this module — lintkit rule R13 enforces the confinement, exactly
as R12 confines file I/O to the storage layer.  All other code goes
through the layout-agnostic methods (``insert``/``get``/``extract_block``
/``absorb``/``best_native_match``/…) shared with the object classes.

Equivalence with the object layout is exact by construction — the same
integer cut-offs, the same float expressions as
:func:`~repro.geometry.bitgrid.key_min_dist_sq` — and proven by the
hypothesis differential suite in
``tests/properties/test_columnar_equivalence.py``.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import DuplicateKeyError, ReproError, TreeInvariantError
from repro.core.descent import Descent, descend
from repro.core.entry import Entry
from repro.core.knn import KNNResult, Neighbour, best_first
from repro.core.node import DataPage, IndexNode
from repro.core.query import QueryResult, scan
from repro.geometry.bitgrid import CellBounds, key_intersects, query_cell_bounds
from repro.geometry.rect import Rect
from repro.geometry.region import RegionKey, key_origins
from repro.geometry.space import DataSpace

__all__ = [
    "ColumnarDataPage",
    "ColumnarIndexNode",
    "DEFAULT_LAYOUT",
    "LAYOUTS",
    "PageLayout",
    "locate_columnar",
    "nearest_columnar",
    "page_layout",
    "range_query_columnar",
]

#: Largest bit-path width that fits the packed unsigned column.
_PACKED_PATH_BITS = 64


def _path_column(path_bits: int) -> "array[int] | list[int]":
    """An empty sorted bit-path column.

    Packed unsigned 64-bit when the space's paths fit (they do at every
    benchmarked scale: ``ndim * resolution <= 64``); a plain list of
    Python ints otherwise — ``resolution`` may go up to 64 per dimension.
    """
    return array("Q") if path_bits <= _PACKED_PATH_BITS else []


class ColumnarDataPage(DataPage):
    """A data page stored as parallel sorted columns.

    Same contract as :class:`DataPage`; ``records`` is materialised on
    demand as a read-only mapping for the cold paths (checker, snapshot,
    durable codec) that want the dict view.
    """

    __slots__ = ("ndim", "path_bits", "_c_paths", "_c_coords", "_c_values")

    def __init__(self, ndim: int, path_bits: int) -> None:
        # Deliberately no super().__init__(): the base `records` dict slot
        # stays unset and is shadowed by the property below.
        self.ndim = ndim
        self.path_bits = path_bits
        self._c_paths = _path_column(path_bits)
        self._c_coords = array("d")
        self._c_values: list[Any] = []

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------

    @property  # type: ignore[override]
    def records(self) -> Mapping[int, tuple[tuple[float, ...], Any]]:
        """A read-only dict view, materialised in path order.

        For the cold callers only (checker, snapshot, durable diff);
        writes must go through :meth:`insert`/:meth:`delete` — mutating
        the view raises.
        """
        coords = self._c_coords
        nd = self.ndim
        return MappingProxyType(
            {
                path: (tuple(coords[i * nd : (i + 1) * nd]), value)
                for i, (path, value) in enumerate(
                    zip(self._c_paths, self._c_values)
                )
            }
        )

    def insert(
        self,
        path: int,
        point: tuple[float, ...],
        value: Any,
        replace: bool = False,
    ) -> None:
        """Store a record; duplicates raise unless ``replace`` is set."""
        paths = self._c_paths
        i = bisect_left(paths, path)
        nd = self.ndim
        if i < len(paths) and paths[i] == path:
            if not replace:
                raise DuplicateKeyError(
                    f"a record with the bit path of point {point} "
                    f"already exists"
                )
            self._c_coords[i * nd : (i + 1) * nd] = array("d", point)
            self._c_values[i] = value
            return
        paths.insert(i, path)
        self._c_values.insert(i, value)
        self._c_coords[i * nd : i * nd] = array("d", point)

    def delete(self, path: int) -> tuple[tuple[float, ...], Any]:
        """Remove and return the record with this path (KeyError if absent)."""
        paths = self._c_paths
        i = bisect_left(paths, path)
        if i == len(paths) or paths[i] != path:
            raise KeyError(path)
        nd = self.ndim
        point = tuple(self._c_coords[i * nd : (i + 1) * nd])
        value = self._c_values[i]
        del paths[i]
        del self._c_values[i]
        del self._c_coords[i * nd : (i + 1) * nd]
        return point, value

    def get(self, path: int) -> tuple[tuple[float, ...], Any] | None:
        """The (point, value) stored under this path, or None."""
        paths = self._c_paths
        i = bisect_left(paths, path)
        if i == len(paths) or paths[i] != path:
            return None
        nd = self.ndim
        return tuple(self._c_coords[i * nd : (i + 1) * nd]), self._c_values[i]

    def paths(self) -> Iterator[int]:
        """Iterate the bit paths, in ascending path order."""
        return iter(self._c_paths)

    def columns(self) -> tuple[list[int], list[Any], bytes]:
        """``(paths, values, coordinates)`` in path order, the
        coordinates packed as little-endian doubles: a full page image
        read off the columns without materialising ``records``."""
        coords = self._c_coords
        if sys.byteorder != "little":
            coords = array("d", coords)
            coords.byteswap()
        return list(self._c_paths), list(self._c_values), coords.tobytes()

    def __contains__(self, path: int) -> bool:
        paths = self._c_paths
        i = bisect_left(paths, path)
        return i < len(paths) and paths[i] == path

    def __len__(self) -> int:
        return len(self._c_paths)

    def __repr__(self) -> str:
        return f"ColumnarDataPage({len(self._c_paths)} records)"

    # ------------------------------------------------------------------
    # Block structure (splits, merges, bulk build)
    # ------------------------------------------------------------------

    def clone(self) -> "ColumnarDataPage":
        """A copy sharing no mutable column state with this page.

        Values are shared (they are opaque payloads the tree never
        mutates); the three columns themselves are fresh containers, so
        in-place edits to either page never show through the other.
        Copy on first write (``store.writable``) depends on exactly
        this property: the original stays intact for published
        versions and the durable store's delta.
        """
        page = ColumnarDataPage.__new__(ColumnarDataPage)
        page.ndim = self.ndim
        page.path_bits = self.path_bits
        page._c_paths = self._c_paths[:]
        page._c_coords = self._c_coords[:]
        page._c_values = self._c_values[:]
        return page

    def changes_since(self, base: DataPage) -> tuple[
        list[tuple[int, tuple[tuple[float, ...], Any]]], list[int]
    ]:
        """The object layout's record-map diff, read off the columns
        without materialising ``records``."""
        if not isinstance(base, ColumnarDataPage):
            return super().changes_since(base)
        paths, values, coords = self._c_paths, self._c_values, self._c_coords
        b_paths, b_values, b_coords = base._c_paths, base._c_values, base._c_coords
        if paths == b_paths and values == b_values and coords == b_coords:
            return [], []
        nd = self.ndim
        base_at = {path: j for j, path in enumerate(b_paths)}
        pop = base_at.pop
        added = []
        for i, path in enumerate(paths):
            j = pop(path, None)
            point = coords[i * nd : i * nd + nd]
            value = values[i]
            if (
                j is None
                or not (value is b_values[j] or value == b_values[j])
                or point != b_coords[j * nd : j * nd + nd]
            ):
                added.append((path, (tuple(point), value)))
        return added, list(base_at)

    def extract_block(self, key: RegionKey, path_bits: int) -> "ColumnarDataPage":
        """Split out the records inside ``key``'s block into a new page.

        A block is one aligned path interval, so on the sorted column the
        extraction is a single contiguous slice — no per-record key test.
        """
        shift = path_bits - key.nbits
        lo = key.value << shift
        i0 = bisect_left(self._c_paths, lo)
        i1 = bisect_left(self._c_paths, lo + (1 << shift))
        nd = self.ndim
        inner = ColumnarDataPage(nd, self.path_bits)
        inner._c_paths = self._c_paths[i0:i1]
        inner._c_coords = self._c_coords[i0 * nd : i1 * nd]
        inner._c_values = self._c_values[i0:i1]
        del self._c_paths[i0:i1]
        del self._c_coords[i0 * nd : i1 * nd]
        del self._c_values[i0:i1]
        return inner

    def absorb(self, other: DataPage) -> None:
        """Take over every record of ``other`` (merge / absorb path).

        Merged regions are disjoint path blocks, so the victim's sorted
        column lands in one contiguous gap of ours — a single splice.
        Falls back to per-record inserts if the inputs interleave.
        """
        if isinstance(other, ColumnarDataPage) and other._c_paths:
            opaths = other._c_paths
            paths = self._c_paths
            i = bisect_left(paths, opaths[0])
            if i == bisect_right(paths, opaths[-1], lo=i):
                nd = self.ndim
                if isinstance(paths, list) and not isinstance(opaths, list):
                    paths[i:i] = list(opaths)
                else:
                    paths[i:i] = opaths
                self._c_coords[i * nd : i * nd] = other._c_coords
                self._c_values[i:i] = other._c_values
                return
        for path, (point, value) in other.records.items():
            self.insert(path, point, value, replace=True)

    def fill_sorted(
        self,
        paths: Sequence[int],
        coords: Sequence[float],
        values: Sequence[Any],
    ) -> None:
        """Append one sorted run of records, given as column slices: each
        column is extended once, with no per-record search (the bulk
        loader fills a page one planned range at a time)."""
        self._c_paths.extend(paths)
        self._c_coords.extend(coords)
        self._c_values.extend(values)

    # ------------------------------------------------------------------
    # Query hot loops
    # ------------------------------------------------------------------

    def collect_in_rect(
        self, rect: Rect, out: list[tuple[tuple[float, ...], Any]]
    ) -> None:
        """Append this page's records inside the half-open box to ``out``."""
        coords = self._c_coords
        nd = self.ndim
        if nd == 2:
            (lo0, lo1) = rect.lows
            (hi0, hi1) = rect.highs
            i = 0
            for value in self._c_values:
                x0 = coords[i]
                x1 = coords[i + 1]
                i += 2
                if lo0 <= x0 < hi0 and lo1 <= x1 < hi1:
                    out.append(((x0, x1), value))
            return
        lows = rect.lows
        highs = rect.highs
        for j, value in enumerate(self._c_values):
            base = j * nd
            for dim in range(nd):
                x = coords[base + dim]
                if not lows[dim] <= x < highs[dim]:
                    break
            else:
                out.append((tuple(coords[base : base + nd]), value))

    def accumulate_nearest(
        self,
        query: tuple[float, ...],
        k: int,
        best: list[tuple[float, int, tuple[float, ...], Any]],
        counter: Iterator[int],
    ) -> None:
        """Feed this page's records into the k-NN candidate max-heap.

        ``best`` holds ``(-dist_sq, tiebreak, point, value)``; distances
        are the same left-to-right float sums the object layout computes,
        so the bound evolution (and hence the page visit set) matches.
        """
        coords = self._c_coords
        nd = self.ndim
        if nd == 2:
            q0, q1 = query
            i = 0
            for value in self._c_values:
                x0 = coords[i]
                x1 = coords[i + 1]
                i += 2
                d = (x0 - q0) ** 2 + (x1 - q1) ** 2
                if len(best) < k:
                    heappush(best, (-d, next(counter), (x0, x1), value))
                elif d < -best[0][0]:
                    heapreplace(best, (-d, next(counter), (x0, x1), value))
            return
        for j, value in enumerate(self._c_values):
            base = j * nd
            d = 0.0
            for dim in range(nd):
                d += (coords[base + dim] - query[dim]) ** 2
            if len(best) < k:
                heappush(
                    best,
                    (-d, next(counter), tuple(coords[base : base + nd]), value),
                )
            elif d < -best[0][0]:
                heapreplace(
                    best,
                    (-d, next(counter), tuple(coords[base : base + nd]), value),
                )


class ColumnarIndexNode(IndexNode):
    """An index node carrying flat search columns next to its entries.

    The ``entries`` list (and the base class's linear algorithms over it)
    stays authoritative for identity and ordering; the columns are
    derived state, built in one pass by the constructor, copied by
    :meth:`clone`, kept in step by :meth:`add`/:meth:`remove` and
    consulted by the overridden matching methods.
    """

    __slots__ = (
        "ndim",
        "resolution",
        "path_bits",
        "_c_org",
        "_c_end",
        "_c_nat_aligned",
        "_c_nat_end",
        "_c_nat_nbits",
        "_c_nat_entries",
        "_c_g_aligned",
        "_c_g_end",
        "_c_g_nbits",
        "_c_g_entries",
    )

    def __init__(
        self,
        index_level: int,
        entries: Sequence[Entry] = (),
        *,
        ndim: int,
        resolution: int,
        path_bits: int,
    ):
        self.ndim = ndim
        self.resolution = resolution
        self.path_bits = path_bits
        super().__init__(index_level, entries)
        # One pass over the entries, one sort of the natives: the order
        # repeated add() produces is ascending (aligned, nbits), a total
        # order since same-level keys are unique.  Guards keep entries
        # order.
        self._c_org: list[int] = []
        self._c_end: list[int] = []
        self._c_g_aligned: list[int] = []
        self._c_g_end: list[int] = []
        self._c_g_nbits: list[int] = []
        self._c_g_entries: list[Entry] = []
        native_level = index_level - 1
        natives: list[tuple[int, int, Entry]] = []
        for entry in self.entries:
            key = entry.key
            self._append_block(key)
            aligned = key.value << (path_bits - key.nbits)
            if entry.level == native_level:
                natives.append((aligned, key.nbits, entry))
            else:
                self._c_g_aligned.append(aligned)
                self._c_g_end.append(aligned + (1 << (path_bits - key.nbits)))
                self._c_g_nbits.append(key.nbits)
                self._c_g_entries.append(entry)
        natives.sort(key=itemgetter(0, 1))
        self._c_nat_aligned = [aligned for aligned, _, _ in natives]
        self._c_nat_end = [
            aligned + (1 << (path_bits - nbits)) for aligned, nbits, _ in natives
        ]
        self._c_nat_nbits = [nbits for _, nbits, _ in natives]
        self._c_nat_entries = [entry for _, _, entry in natives]

    # ------------------------------------------------------------------
    # Column maintenance
    # ------------------------------------------------------------------

    def _append_block(self, key: RegionKey) -> None:
        """Extend the per-entry origin/end columns with ``key``'s block."""
        resolution = self.resolution
        origins, halvings = key_origins(key.value, key.nbits, self.ndim, resolution)
        org = self._c_org
        end = self._c_end
        for dim, o in enumerate(origins):
            org.append(o)
            end.append(o + (1 << (resolution - halvings[dim])))

    def add(self, entry: Entry) -> None:
        """Insert an entry, keeping every derived column in step."""
        super().add(entry)
        self._append_block(entry.key)
        key = entry.key
        if entry.level == self.index_level - 1:
            aligned = key.value << (self.path_bits - key.nbits)
            col = self._c_nat_aligned
            i = bisect_right(col, aligned)
            # Equal origins mean nested blocks: keep ascending nbits so
            # the longest prefix sorts last among its containers.
            nbits_col = self._c_nat_nbits
            while i > 0 and col[i - 1] == aligned and nbits_col[i - 1] > key.nbits:
                i -= 1
            col.insert(i, aligned)
            self._c_nat_end.insert(
                i, aligned + (1 << (self.path_bits - key.nbits))
            )
            nbits_col.insert(i, key.nbits)
            self._c_nat_entries.insert(i, entry)
        else:
            aligned = key.value << (self.path_bits - key.nbits)
            self._c_g_aligned.append(aligned)
            self._c_g_end.append(
                aligned + (1 << (self.path_bits - key.nbits))
            )
            self._c_g_nbits.append(key.nbits)
            self._c_g_entries.append(entry)

    def remove(self, entry: Entry) -> None:
        """Remove an entry object and its column rows."""
        entries = self.entries
        for i, existing in enumerate(entries):
            if existing is entry:
                break
        else:
            raise TreeInvariantError(f"{entry!r} not present in node")
        super().remove(entry)
        nd = self.ndim
        del self._c_org[i * nd : (i + 1) * nd]
        del self._c_end[i * nd : (i + 1) * nd]
        if entry.level == self.index_level - 1:
            j = self._c_nat_entries.index(entry)
            del self._c_nat_aligned[j]
            del self._c_nat_end[j]
            del self._c_nat_nbits[j]
            del self._c_nat_entries[j]
        else:
            j = self._c_g_entries.index(entry)
            del self._c_g_aligned[j]
            del self._c_g_end[j]
            del self._c_g_nbits[j]
            del self._c_g_entries[j]

    def clone(self) -> "ColumnarIndexNode":
        """A copy with columns of its own that shares the entries (see
        :meth:`IndexNode.clone`); the columns are copied, not rebuilt."""
        node = ColumnarIndexNode.__new__(ColumnarIndexNode)
        node.index_level = self.index_level
        node.entries = self.entries[:]
        node._keyset = set(self._keyset)
        for name in ColumnarIndexNode.__slots__:
            value = getattr(self, name)
            setattr(node, name, value[:] if name.startswith("_c_") else value)
        return node

    def native_count(self) -> int:
        return len(self._c_nat_entries)

    def natives(self) -> list[Entry]:
        """The unpromoted entries, in entries order (like the base class)."""
        level = self.index_level - 1
        return [e for e in self.entries if e.level == level]

    def __repr__(self) -> str:
        return (
            f"ColumnarIndexNode(level={self.index_level}, "
            f"natives={self.native_count()}, guards={self.guard_count()})"
        )

    # ------------------------------------------------------------------
    # Matching (the descent hot path)
    # ------------------------------------------------------------------

    def best_native_match(self, path: int, path_bits: int) -> Entry | None:
        """Longest-prefix native containing the path: bisect + walk-back.

        ``path_bits`` may be shorter than the space's full width (update
        descents search along region keys), so natives longer than the
        query path are skipped — exactly :meth:`Entry.matches_path`.
        """
        aligned_col = self._c_nat_aligned
        if not aligned_col:
            return None
        q = path << (self.path_bits - path_bits)
        j = bisect_right(aligned_col, q) - 1
        end_col = self._c_nat_end
        nbits_col = self._c_nat_nbits
        while j >= 0:
            if end_col[j] > q and nbits_col[j] <= path_bits:
                return self._c_nat_entries[j]
            j -= 1
        return None

    def matching_guards(self, path: int, path_bits: int) -> list[Entry]:
        """All guard entries whose block contains the path.

        A guard matches iff its aligned interval contains the aligned
        query — two integer compares per guard, no per-guard shifting.
        The ``nbits`` filter only matters for update descents searching
        with a short path (``path_bits < space.path_bits``).
        """
        aligned_col = self._c_g_aligned
        if not aligned_col:
            return []
        q = path << (self.path_bits - path_bits)
        end_col = self._c_g_end
        nbits_col = self._c_g_nbits
        entries = self._c_g_entries
        return [
            entries[i]
            for i, aligned in enumerate(aligned_col)
            if aligned <= q < end_col[i] and nbits_col[i] <= path_bits
        ]

    # ------------------------------------------------------------------
    # Query hot loops
    # ------------------------------------------------------------------

    def push_intersecting(self, stack: list[Entry], bounds: CellBounds) -> None:
        """Append the children whose blocks intersect the query cut-offs.

        Children keep entries order, so the caller's LIFO traversal
        visits exactly the sequence the object layout's filter-at-pop
        produces.  The test per child is ``2 * ndim`` integer compares on
        the cached origin/end columns — no per-key bit decode.
        """
        org = self._c_org
        end = self._c_end
        if self.ndim == 2:
            (b0, a0), (b1, a1) = bounds
            i = 0
            for entry in self.entries:
                if (
                    org[i] <= a0
                    and end[i] > b0
                    and org[i + 1] <= a1
                    and end[i + 1] > b1
                ):
                    stack.append(entry)
                i += 2
            return
        nd = self.ndim
        for j, entry in enumerate(self.entries):
            base = j * nd
            for dim in range(nd):
                b, a = bounds[dim]
                if org[base + dim] > a or end[base + dim] <= b:
                    break
            else:
                stack.append(entry)

    def expand_nearest(
        self,
        heap: list[tuple[float, int, Entry]],
        best: list[tuple[float, int, tuple[float, ...], Any]],
        k: int,
        query: tuple[float, ...],
        space: Any,
        counter: Iterator[int],
    ) -> None:
        """Push the children that could still beat the k-th best distance.

        The lower bound per child reuses the cached integer origins/ends
        with the exact float expressions of
        :func:`~repro.geometry.bitgrid.key_min_dist_sq`, so bounds — and
        therefore the visit and prune sets — are bit-identical to the
        object layout's.
        """
        cells = 1 << self.resolution
        bounds = space.bounds
        spans = space.spans
        org = self._c_org
        end = self._c_end
        nd = self.ndim
        i = 0
        for entry in self.entries:
            total = 0.0
            for dim in range(nd):
                lo = bounds[dim][0]
                span = spans[dim]
                block_lo = lo + org[i + dim] / cells * span
                block_hi = lo + end[i + dim] / cells * span
                x = query[dim]
                if x < block_lo:
                    total += (block_lo - x) ** 2
                elif x > block_hi:
                    total += (x - block_hi) ** 2
            i += nd
            if len(best) < k or total <= -best[0][0]:
                heappush(heap, (total, next(counter), entry))


def locate_columnar(tree: Any, path: int) -> Descent:
    """Fused untraced exact-match descent over columnar index nodes.

    Returns the :data:`~repro.core.descent.Descent` tuple ``(entry,
    owner_page, guard_map, max_guard_set)``.  Semantically this is
    :func:`repro.core.descent.step` applied ``height`` times: the same
    pages read in the same order, the same merge/consume/longer-key
    rules, the same invariant errors.  The win is structural — one loop
    over flat columns, no per-node dispatch, no guard-list building, and
    since the search path is full width the native bisect needs no
    alignment shift and no ``nbits`` filter.

    Callers guarantee an untraced tree: the traced path must go through
    :func:`repro.core.descent.step`, the one ``guard_hit`` emitter.
    """
    level = tree.height
    if level == 0:
        return tree.root_entry(), None, {}, 0
    page = tree.root_page
    read = tree.store.read
    by_level: dict[int, tuple[Entry, int]] = {}
    max_guards = 0
    while level > 0:
        node = read(page)
        if node.index_level != level:
            raise TreeInvariantError(
                f"entry of level {level} points at node of index "
                f"level {node.index_level}"
            )
        g_aligned = node._c_g_aligned
        if g_aligned:
            g_end = node._c_g_end
            g_nbits = node._c_g_nbits
            g_entries = node._c_g_entries
            for i, aligned in enumerate(g_aligned):
                if aligned <= path < g_end[i]:
                    guard = g_entries[i]
                    lvl = guard.level
                    cur = by_level.get(lvl)
                    if cur is None or g_nbits[i] > cur[0].key.nbits:
                        by_level[lvl] = (guard, page)
                    elif (
                        g_nbits[i] == cur[0].key.nbits
                        and guard.key != cur[0].key
                    ):
                        raise TreeInvariantError(
                            f"two disjoint level-{lvl} guards match one "
                            f"path: {cur[0]!r} vs {guard!r}"
                        )
        aligned_col = node._c_nat_aligned
        native = None
        native_nbits = 0
        if aligned_col:
            j = bisect_right(aligned_col, path) - 1
            end_col = node._c_nat_end
            while j >= 0:
                if end_col[j] > path:
                    native = node._c_nat_entries[j]
                    native_nbits = node._c_nat_nbits[j]
                    break
                j -= 1
        carried = by_level.pop(level - 1, None) if by_level else None
        if carried is None:
            if native is None:
                raise TreeInvariantError(
                    f"no entry of level {level - 1} covers the search "
                    f"path at index level {level}"
                )
            chosen = native
            owner = page
        elif native is None:
            chosen, owner = carried
        else:
            guard_entry, guard_owner = carried
            guard_nbits = guard_entry.key.nbits
            if guard_nbits == native_nbits:
                raise TreeInvariantError(
                    f"native {native!r} and guard {guard_entry!r} have "
                    f"keys of equal length on one path: same-level keys "
                    f"must be unique"
                )
            if guard_nbits > native_nbits:
                chosen, owner = guard_entry, guard_owner
            else:
                chosen = native
                owner = page
        if len(by_level) > max_guards:
            max_guards = len(by_level)
        page = chosen.page
        level -= 1
    return chosen, owner, by_level, max_guards


def range_query_columnar(tree: Any, rect: Rect) -> QueryResult:
    """The untraced range traversal over columnar pages.

    Same cut-offs and stack discipline as :func:`repro.core.query.scan`,
    but children are filtered *before* the push through the node's
    cached per-entry origin/end columns (``2*ndim`` integer compares per
    child, no per-key bit decode), and the per-record box filter runs
    inline over the flat coordinate column.  Filter-before-push and
    filter-at-pop visit the same pages in the same order, so every
    page-access count matches the object layout exactly — the
    equivalence suite asserts it.
    """
    result = QueryResult()
    space = tree.space
    bounds = query_cell_bounds(space, rect)
    root = tree.root_entry()
    key = root.key
    if not key_intersects(
        key.value, key.nbits, space.ndim, space.resolution, bounds
    ):
        return result
    read = tree.store.read
    records = result.records
    stack = [root]
    while stack:
        entry = stack.pop()
        result.pages_visited += 1
        if entry.level == 0:
            result.data_pages_visited += 1
            read(entry.page).collect_in_rect(rect, records)
        else:
            read(entry.page).push_intersecting(stack, bounds)
    return result


def nearest_columnar(
    tree: Any, query: tuple[float, ...], k: int
) -> KNNResult:
    """Best-first k-NN over columnar pages (untraced hot path).

    The candidate max-heap holds ``(-dist_sq, tiebreak, point, value)``
    tuples — ``Neighbour`` objects are only materialised for the final
    result list.  The traversal order, visit count and pruning decisions
    are identical to :func:`repro.core.knn.best_first` on an
    object-layout tree holding the same records (same bounds, same
    thresholds).
    """
    counter = itertools.count()
    heap: list[tuple[float, int, Any]] = [(0.0, next(counter), tree.root_entry())]
    best: list[tuple[float, int, tuple[float, ...], Any]] = []
    pages_visited = 0
    read = tree.store.read
    space = tree.space
    while heap:
        dist_sq, _, entry = heappop(heap)
        if len(best) == k and dist_sq > -best[0][0]:
            break
        pages_visited += 1
        node = read(entry.page)
        if entry.level == 0:
            node.accumulate_nearest(query, k, best, counter)
        else:
            node.expand_nearest(heap, best, k, query, space, counter)
    ordered = sorted(
        (
            Neighbour(stored, value, math.sqrt(-neg_d))
            for neg_d, _, stored, value in best
        ),
        key=lambda n: n.distance,
    )
    return KNNResult(neighbours=ordered, pages_visited=pages_visited)


# ----------------------------------------------------------------------
# The layout registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PageLayout:
    """Everything that differs between the two page layouts.

    A tree (or a snapshot of one) picks its record once, at
    construction; no other code branches on the layout.  The untraced
    query entry points live here — traced queries always run the
    generic loops (:func:`~repro.core.descent.descend`,
    :func:`~repro.core.query.scan`,
    :func:`~repro.core.knn.best_first`), which work on both layouts.
    The object layout's untraced entry points *are* those generic
    loops: it survives as the differential oracle for the columnar one.
    """

    name: str
    #: ``(space) -> DataPage``: an empty data page.
    data_page: Callable[[DataSpace], DataPage]
    #: ``(index_level, entries, space) -> IndexNode``.
    index_node: Callable[[int, Sequence[Entry], DataSpace], IndexNode]
    #: Untraced exact match: ``(tree, path) -> Descent``.
    descend: Callable[[Any, int], Descent]
    #: Untraced range query: ``(tree, rect) -> QueryResult``.
    range_query: Callable[[Any, Rect], QueryResult]
    #: Untraced k-NN: ``(tree, query, k) -> KNNResult``.
    nearest: Callable[[Any, tuple[float, ...], int], KNNResult]


_OBJECT = PageLayout(
    name="object",
    data_page=lambda space: DataPage(),
    index_node=lambda level, entries, space: IndexNode(level, entries),
    descend=descend,
    range_query=scan,
    nearest=best_first,
)

_COLUMNAR = PageLayout(
    name="columnar",
    data_page=lambda space: ColumnarDataPage(space.ndim, space.path_bits),
    index_node=lambda level, entries, space: ColumnarIndexNode(
        level,
        entries,
        ndim=space.ndim,
        resolution=space.resolution,
        path_bits=space.path_bits,
    ),
    descend=locate_columnar,
    range_query=range_query_columnar,
    nearest=nearest_columnar,
)

#: The page layouts a tree can be built with, by name.
LAYOUTS: dict[str, PageLayout] = {
    layout.name: layout for layout in (_OBJECT, _COLUMNAR)
}

#: The layout the product runs on; the object layout is the oracle.
DEFAULT_LAYOUT = _COLUMNAR.name


def page_layout(name: str) -> PageLayout:
    """The layout record called ``name`` (:class:`ReproError` if unknown)."""
    try:
        return LAYOUTS[name]
    except KeyError:
        raise ReproError(
            f"unknown page layout {name!r}; expected one of {tuple(LAYOUTS)}"
        ) from None
