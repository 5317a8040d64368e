"""Bottom-up bulk loading of a BV-tree.

Building a tree by repeated :func:`~repro.core.insert.insert_point` pays a
full root descent, a page write and (amortised) a split scan *per record*.
For an initial load all of that is avoidable: the final set of data-page
regions depends only on the record population, so it can be planned over
the **sorted bit paths** up front — a region block is a path-prefix
interval, so every population count is two binary searches instead of a
scan — and the index levels constructed by replaying the planned splits
through the proven placement machinery, one operation per *page* instead
of per record.

The plan phase mirrors :mod:`repro.core.split` exactly (greedy heavy-half
descent, same scoring, same tie-breaks), so every planned split satisfies
the 1/3 balance argument and the resulting tree honours the same occupancy
guarantees as an incrementally built one.  The replay phase drives
:func:`~repro.core.insert._place_split_inner` — the same §2/§4 promotion,
guard-lodging and demotion code incremental splits use — so all index
invariants (canonical placement, justified guards, single-descent
ownership) hold by construction; ``tree.check(check_owners=True)`` passes
on the result and the property tests assert query-answer equivalence
against incremental construction.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Iterable, Sequence

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

#: Half-open index ranges into the sorted path array.  A region owns a
#: small list of them: contiguous runs of its block's paths minus the
#: runs carved out by the inner regions split off it (its holes).
Ranges = list[tuple[int, int]]


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
    encoded = [
        (space.point_path(point), tuple(map(float, point)), value)
        for point, value in records
    ]
    encoded.sort(key=lambda item: item[0])
    deduped: list[tuple[int, tuple[float, ...], Any]] = []
    for item in encoded:
        if deduped and deduped[-1][0] == item[0]:
            if not replace:
                raise DuplicateKeyError(
                    f"two records share the bit path of point {item[1]}"
                )
            deduped[-1] = item  # stable sort: later input wins, as insert would
        else:
            deduped.append(item)
    if not deduped:
        return 0

    paths = [path for path, _, _ in deduped]
    capacity = tree.policy.data_capacity
    final_ranges, events = _plan_partition(
        paths, space.path_bits, capacity
    )

    def page_for(ranges: Ranges) -> DataPage:
        # Ranges are ascending disjoint runs into the sorted path array,
        # so their concatenation is already in path order — a columnar
        # page is built by straight appends, no per-record bisect.
        page = tree.make_data_page()
        page.fill_sorted(
            deduped[i] for start, end in ranges for i in range(start, end)
        )
        return page

    # Replay the planned splits oldest-first through the incremental
    # placement machinery.  Pages are created with their *final* record
    # sets (the plan already knows them), so no record is ever moved.
    tree.store.write(tree.root_page, page_for(final_ranges[0]))
    tracer = tree.tracer
    for outer_id, inner_id, split_key in events:
        inner_page = tree.alloc_data_page(page_for(final_ranges[inner_id]))
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
                moved=sum(
                    end - start for start, end in final_ranges[inner_id]
                ),
                planned=True,
            )
        outer_key = ROOT_KEY if outer_id == 0 else events[outer_id - 1][2]
        outer_entry = tree.registered(0, outer_key)
        if outer_entry is None:
            outer_entry = tree.root_entry()
        _insert._place_split_inner(tree, inner_entry, outer_entry)
    tree.count = len(deduped)
    tree.stats.bulk_loaded += len(deduped)
    return len(deduped)


def _count_in_block(
    paths: Sequence[int], ranges: Ranges, path_bits: int, block: RegionKey
) -> int:
    """How many of the region's paths lie inside ``block``.

    A block is the path interval ``[value << s, (value + 1) << s)`` with
    ``s = path_bits - nbits``; counting per range is two binary searches.
    """
    shift = path_bits - block.nbits
    lo = block.value << shift
    hi = (block.value + 1) << shift
    total = 0
    for start, end in ranges:
        total += bisect_left(paths, hi, start, end) - bisect_left(
            paths, lo, start, end
        )
    return total


def _choose_split_sorted(
    base: RegionKey, ranges: Ranges, paths: Sequence[int], path_bits: int
) -> RegionKey:
    """:func:`repro.core.split.choose_split` over sorted paths.

    Identical greedy heavy-half descent, candidate set and scoring
    (maximise balance, tie-break on the shallower block) — only the
    counting is replaced by binary searches, turning each halving step
    from a population scan into ``O(holes · log n)``.
    """
    total = _count_in_block(paths, ranges, path_bits, base)
    candidates: list[tuple[RegionKey, int]] = []
    current = base
    count = total
    while count >= 2:
        if current.nbits >= path_bits:
            raise ResolutionExhaustedError(
                f"{count} items share the {current.nbits}-bit block "
                f"{current!r}; cannot split within resolution"
            )
        lower = current.child(0)
        n_lower = _count_in_block(paths, ranges, path_bits, lower)
        n_upper = count - n_lower
        upper = current.child(1)
        for block, n in ((lower, n_lower), (upper, n_upper)):
            if 0 < n < total:
                candidates.append((block, n))
        if n_upper > n_lower:
            current, count = upper, n_upper
        else:
            current, count = lower, n_lower
    best_block: RegionKey | None = None
    best_score: tuple[int, int] | None = None
    for block, inside in candidates:
        score = (min(inside, total - inside), -block.nbits)
        if best_score is None or score > best_score:
            best_block, best_score = block, score
    if best_block is None:  # pragma: no cover - distinct paths always split
        raise ResolutionExhaustedError(
            f"no split candidate for {total} paths under {base!r}"
        )
    return best_block


def _partition_ranges(
    ranges: Ranges, paths: Sequence[int], path_bits: int, block: RegionKey
) -> tuple[Ranges, Ranges]:
    """Split a region's ranges into (inside ``block``, outside ``block``)."""
    shift = path_bits - block.nbits
    lo = block.value << shift
    hi = (block.value + 1) << shift
    inner: Ranges = []
    outer: Ranges = []
    for start, end in ranges:
        i0 = bisect_left(paths, lo, start, end)
        i1 = bisect_left(paths, hi, start, end)
        if start < i0:
            outer.append((start, i0))
        if i0 < i1:
            inner.append((i0, i1))
        if i1 < end:
            outer.append((i1, end))
    return inner, outer


def _plan_partition(
    paths: Sequence[int], path_bits: int, capacity: int
) -> tuple[list[Ranges], list[tuple[int, int, RegionKey]]]:
    """Plan the data-page partition over sorted, duplicate-free paths.

    Returns ``(final_ranges, events)``: region 0 is the root (key ε);
    region ``i >= 1`` is created by ``events[i - 1]``, a tuple
    ``(outer_region_id, inner_region_id, split_key)`` in replay order —
    every region's creation event precedes all events that split it,
    exactly the order the incremental algorithm would have produced.
    """
    region_keys: list[RegionKey] = [ROOT_KEY]
    region_ranges: list[Ranges] = [[(0, len(paths))]]
    events: list[tuple[int, int, RegionKey]] = []
    pending = [0]
    while pending:
        rid = pending.pop()
        ranges = region_ranges[rid]
        while sum(end - start for start, end in ranges) > capacity:
            split_key = _choose_split_sorted(
                region_keys[rid], ranges, paths, path_bits
            )
            inner, outer = _partition_ranges(ranges, paths, path_bits, split_key)
            inner_id = len(region_keys)
            region_keys.append(split_key)
            region_ranges.append(inner)
            events.append((rid, inner_id, split_key))
            region_ranges[rid] = ranges = outer
            pending.append(inner_id)
    return region_ranges, events
