"""Bottom-up bulk loading of a BV-tree.

Building a tree by repeated :func:`~repro.core.insert.insert_point` pays a
full root descent, a page write and (amortised) a split scan *per record*.
For an initial load all of that is avoidable: the final set of data-page
regions depends only on the record population, so it can be planned over
the **sorted bit paths** up front — a region block is a path-prefix
interval, so every population count is a binary search instead of a
scan — and the index levels constructed by replaying the planned splits
through the proven placement machinery, one operation per *page* instead
of per record.

The load runs in four phases, and one stable sort is the only per-record
work beyond the ingest pass:

1. **Ingest into columns.**  One pass over the records encodes each
   point with :meth:`~repro.geometry.space.DataSpace.point_path` and
   appends its coordinates to one ``array('d')`` and its value to a list.
   A stable sort of an index permutation by path, deduplicated on the
   sorted run (the last record in input order wins under ``replace``),
   yields the sorted path, coordinate and value columns.  No per-record
   tuple is built.
2. **Plan in integers.**  Regions are ``(value, nbits)`` int pairs and
   their populations half-open index ranges into the sorted path column;
   a halving step is one ``bisect`` per range at the block's midpoint.
   A :class:`~repro.geometry.region.RegionKey` is built only for each
   planned split key.
3. **Fill pages from column slices.**  Each region's ranges are ascending
   disjoint runs of the sorted columns, so a page is filled by one
   ``fill_sorted`` call per range — three column extends on the columnar
   layout.
4. **Replay.**  The planned splits are replayed oldest-first through
   :func:`~repro.core.insert._place_split_inner`; index-node splits build
   their inner node in one pass (``ColumnarIndexNode(level, entries)``).

The plan mirrors :mod:`repro.core.split` exactly (greedy heavy-half
descent, same scoring, same tie-breaks), so every planned split satisfies
the paper's §2 1/3 balance argument and the resulting tree honours the
same occupancy guarantees as an incrementally built one.  The replay
drives the same §2/§4 promotion, guard-lodging and demotion code
incremental splits use, so all index invariants (canonical placement,
justified guards, single-descent ownership) hold by construction;
``tree.check(check_owners=True)`` passes on the result and the property
tests assert query-answer equivalence against incremental construction.

How the plan is computed may change; what it builds may not.
``tests/core/test_bulk.py`` holds recorded digests of the snapshot, the
structural counters and the planned ``data_split`` events over a grid of
inputs, and every version of this loader must reproduce them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import compress, islice
from operator import ne
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.errors import (
    DuplicateKeyError,
    ReproError,
    ResolutionExhaustedError,
)
from repro.core import insert as _insert
from repro.core.entry import Entry
from repro.core.node import DataPage
from repro.geometry.region import ROOT_KEY, RegionKey
from repro.obs.events import DATA_SPLIT

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tree import BVTree

#: Half-open index ranges into the sorted path column.  A region owns a
#: small list of them: contiguous runs of its block's paths minus the
#: runs carved out by the inner regions split off it (its holes).
Ranges = list[tuple[int, int]]

#: A block of the binary partition as ``(value, nbits)``: the integer
#: form of a :class:`RegionKey` the plan works in.
Block = tuple[int, int]


def bulk_load(
    tree: "BVTree",
    records: Iterable[tuple[Sequence[float], Any]],
    replace: bool = False,
) -> int:
    """Bulk-build an empty tree from ``(point, value)`` records.

    Returns the number of records loaded.  Records whose points coincide
    in the leading ``space.resolution`` bits of every coordinate are the
    same key to the index: with ``replace`` the last such record wins
    (matching ``insert(..., replace=True)`` applied in input order),
    otherwise :class:`DuplicateKeyError` is raised.

    The tree must be empty — bulk loading plans the whole partition from
    the record population; merging into existing regions is what
    :meth:`~repro.core.tree.BVTree.update_many` is for.
    """
    if tree.count:
        raise ReproError(
            f"bulk_load requires an empty tree, this one holds {tree.count} "
            f"records (use update_many to add to a populated tree)"
        )
    space = tree.space
    nd = space.ndim
    paths, coords, values = _sorted_columns(
        space.point_path, nd, records, replace
    )
    if not paths:
        return 0

    final_ranges, events = _plan_partition(
        paths, space.path_bits, tree.policy.data_capacity
    )
    # Build every page from column slices first, so the columns are
    # freed before the replay grows the index.  Ranges are ascending
    # disjoint runs of the sorted columns, so filling them in order
    # leaves each page in path order.  The page list is allocated once:
    # grown by appends, its last reallocation can land above the columns
    # in the heap and keep their freed memory from returning to the OS.
    pages: list[DataPage] = [None] * len(final_ranges)  # type: ignore[list-item]
    for k, ranges in enumerate(final_ranges):
        page = tree.make_data_page()
        for start, end in ranges:
            page.fill_sorted(
                paths[start:end],
                coords[start * nd : end * nd],
                values[start:end],
            )
        pages[k] = page
    loaded = len(paths)
    del paths, coords, values, final_ranges

    # Replay the planned splits oldest-first through the incremental
    # placement machinery.  Pages are created with their *final* record
    # sets (the plan already knows them), so no record is ever moved.
    tree.store.write(tree.root_page, pages[0])
    tracer = tree.tracer
    split_keys: list[RegionKey] = []
    for outer_id, inner_id, (value, nbits) in events:
        split_key = RegionKey(nbits, value)
        split_keys.append(split_key)
        inner_page = tree.alloc_data_page(pages[inner_id])
        inner_entry = Entry(split_key, 0, inner_page)
        tree.register_entry(inner_entry)
        tree.stats.data_splits += 1
        if tracer.structural:
            # Planned splits count (and trace) like incremental ones, so
            # a trace replay reproduces the OpCounters delta either way.
            tracer.emit(
                DATA_SPLIT,
                key=split_key.bit_string(),
                inner_page=inner_page,
                moved=len(pages[inner_id]),
                planned=True,
            )
        outer_key = ROOT_KEY if outer_id == 0 else split_keys[outer_id - 1]
        outer_entry = tree.registered(0, outer_key)
        if outer_entry is None:
            outer_entry = tree.root_entry()
        _insert._place_split_inner(tree, inner_entry, outer_entry)
    tree.count = loaded
    tree.stats.bulk_loaded += loaded
    return loaded


def _sorted_columns(
    point_path: Callable[[Sequence[float]], int],
    nd: int,
    records: Iterable[tuple[Sequence[float], Any]],
    replace: bool,
) -> tuple[list[int], "array[float]", list[Any]]:
    """Ingest ``records`` into sorted, duplicate-free columns.

    Returns ``(paths, coords, values)`` in ascending path order, with
    ``nd`` coordinates per record in ``coords``.  One pass encodes and
    appends; one stable sort of an index permutation orders it; runs of
    equal paths keep their last record (input order) under ``replace``
    and raise :class:`DuplicateKeyError` otherwise.
    """
    raw_paths: list[int] = []
    raw_coords = array("d")
    raw_values: list[Any] = []
    add_path = raw_paths.append
    add_coords = raw_coords.extend
    add_value = raw_values.append
    for point, value in records:
        add_path(point_path(point))
        add_coords(map(float, point))
        add_value(value)

    order = sorted(range(len(raw_paths)), key=raw_paths.__getitem__)
    paths = list(map(raw_paths.__getitem__, order))
    # Equal paths are one key and sort next to each other; the stable
    # sort leaves each run's last record in input order last, and that
    # is the one kept (as repeated inserts with ``replace`` would).
    last_of_run = list(map(ne, paths, islice(paths, 1, None)))
    last_of_run.append(True)
    if not all(last_of_run):
        if not replace:
            i = order[last_of_run.index(False) + 1]
            raise DuplicateKeyError(
                f"two records share the bit path of point "
                f"{tuple(raw_coords[i * nd : (i + 1) * nd])}"
            )
        order = list(compress(order, last_of_run))
        paths = list(compress(paths, last_of_run))
    del last_of_run
    values = list(map(raw_values.__getitem__, order))
    coords = array("d", [0.0]) * (nd * len(order))
    for dim in range(nd):
        coords[dim::nd] = array("d", map(raw_coords[dim::nd].__getitem__, order))
    return paths, coords, values


def _choose_split_sorted(
    base: Block, ranges: Ranges, paths: Sequence[int], path_bits: int
) -> Block:
    """:func:`repro.core.split.choose_split` over sorted paths.

    Identical greedy heavy-half descent, candidate set and scoring
    (maximise balance, tie-break on the shallower block) — only the
    counting is replaced by binary searches over the ranges still inside
    the current block, turning each halving step from a population scan
    into ``O(ranges · log n)``.

    Candidates deepen along the descent, so a later one wins only with a
    strictly better balance ``min(n, total - n)``; and a candidate inside
    the current block holds at most ``count`` paths, so the descent stops
    once ``count`` cannot beat the best balance found.
    """
    total = sum(end - start for start, end in ranges)
    best: Block | None = None
    best_balance = 0
    value, nbits = base
    inside = ranges
    count = total
    while count >= 2 and count > best_balance:
        if nbits >= path_bits:
            raise ResolutionExhaustedError(
                f"{count} items share the {nbits}-bit block "
                f"{RegionKey(nbits, value)!r}; cannot split within resolution"
            )
        # Every path in ``inside`` lies in the current block; its lower
        # child ends at the block's midpoint, so each range splits with
        # one binary search.
        mid = ((value << 1) | 1) << (path_bits - nbits - 1)
        lower: Ranges = []
        upper: Ranges = []
        n_lower = 0
        for start, end in inside:
            cut = bisect_left(paths, mid, start, end)
            if start < cut:
                lower.append((start, cut))
                n_lower += cut - start
            if cut < end:
                upper.append((cut, end))
        n_upper = count - n_lower
        value <<= 1
        nbits += 1
        # The lower half is the earlier candidate: the upper replaces it
        # only with a strictly better balance.  A positive balance means
        # the block splits the population.
        balance = min(n_lower, total - n_lower)
        if balance > best_balance:
            best, best_balance = (value, nbits), balance
        balance = min(n_upper, total - n_upper)
        if balance > best_balance:
            best, best_balance = (value | 1, nbits), balance
        if n_upper > n_lower:
            value |= 1
            inside, count = upper, n_upper
        else:
            inside, count = lower, n_lower
    if best is None:  # pragma: no cover - distinct paths always split
        raise ResolutionExhaustedError(
            f"no split candidate for {total} paths under "
            f"{RegionKey(base[1], base[0])!r}"
        )
    return best


def _partition_ranges(
    ranges: Ranges, paths: Sequence[int], path_bits: int, block: Block
) -> tuple[Ranges, Ranges]:
    """Split a region's ranges into (inside ``block``, outside ``block``)."""
    value, nbits = block
    shift = path_bits - nbits
    lo = value << shift
    hi = (value + 1) << shift
    inner: Ranges = []
    outer: Ranges = []
    for start, end in ranges:
        i0 = bisect_left(paths, lo, start, end)
        i1 = bisect_left(paths, hi, i0, end)
        if start < i0:
            outer.append((start, i0))
        if i0 < i1:
            inner.append((i0, i1))
        if i1 < end:
            outer.append((i1, end))
    return inner, outer


def _plan_partition(
    paths: Sequence[int], path_bits: int, capacity: int
) -> tuple[list[Ranges], list[tuple[int, int, Block]]]:
    """Plan the data-page partition over sorted, duplicate-free paths.

    Returns ``(final_ranges, events)``: region 0 is the root (key ε);
    region ``i >= 1`` is created by ``events[i - 1]``, a tuple
    ``(outer_region_id, inner_region_id, (value, nbits))`` in replay
    order — every region's creation event precedes all events that split
    it, exactly the order the incremental algorithm would have produced.
    """
    region_blocks: list[Block] = [(0, 0)]
    region_ranges: list[Ranges] = [[(0, len(paths))]]
    events: list[tuple[int, int, Block]] = []
    pending = [0]
    while pending:
        rid = pending.pop()
        ranges = region_ranges[rid]
        while sum(end - start for start, end in ranges) > capacity:
            split = _choose_split_sorted(
                region_blocks[rid], ranges, paths, path_bits
            )
            inner, outer = _partition_ranges(ranges, paths, path_bits, split)
            inner_id = len(region_blocks)
            region_blocks.append(split)
            region_ranges.append(inner)
            events.append((rid, inner_id, split))
            region_ranges[rid] = ranges = outer
            pending.append(inner_id)
    return region_ranges, events
