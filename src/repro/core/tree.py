"""The public BV-tree facade.

Example
-------
>>> from repro.geometry import DataSpace
>>> from repro.core import BVTree
>>> space = DataSpace.unit(2)
>>> tree = BVTree(space, data_capacity=4, fanout=8)
>>> tree.insert((0.1, 0.2), "a")
>>> tree.insert((0.8, 0.9), "b")
>>> tree.get((0.1, 0.2))
'a'
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.errors import KeyNotFoundError, ReproError, TreeInvariantError
from repro.core import bulk as _bulk
from repro.core import insert as _insert
from repro.core import delete as _delete
from repro.core import query as _query
from repro.core.columnar import DEFAULT_LAYOUT, page_layout
from repro.core.descent import Locate, locate
from repro.core.entry import Entry
from repro.core.node import DataPage, IndexNode
from repro.core.policy import CapacityPolicy
from repro.core.stats import OpCounters, TreeStats, collect
from repro.geometry.rect import Rect
from repro.geometry.region import ROOT_KEY, RegionKey
from repro.geometry.space import DataSpace
from repro.obs.tracer import Tracer
from repro.storage import Storage, default_store

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.knn import KNNResult
    from repro.obs.explain import ExplainReport


class BVTree:
    """An n-dimensional index with B-tree characteristics (Freeston 1995).

    Parameters
    ----------
    space:
        The data space the indexed points live in.
    data_capacity:
        ``P`` — maximum records per data page.
    fanout:
        ``F`` — maximum unpromoted entries per index node.
    policy:
        ``"scaled"`` (default) gives index level ``x`` pages of ``x`` times
        the base size, which restores best-case capacity in the worst case
        (paper §7.3); ``"uniform"`` keeps one page size and accepts the
        §7.2 worst-case height growth.
    page_bytes:
        ``B`` — byte size of data pages and level-1 index pages (accounting
        only; pages store live objects).
    store:
        Optionally share a :class:`~repro.storage.Storage` backend (e.g.
        a :class:`~repro.storage.BufferPool` to measure cache behaviour,
        or a store co-located with other structures).  Core code depends
        only on the protocol, never on a concrete backend (lint rule R3).
    tracer:
        Optionally a pre-configured :class:`~repro.obs.Tracer`.  The tree
        shares its tracer with its store, so page-level and
        structure-level events interleave in one stream; by default the
        tracer has no subscribers and the instrumented paths cost a
        single branch.  Subscribe a sink later with
        ``tree.tracer.subscribe(...)``.
    layout:
        ``"columnar"`` (default) packs pages into flat array columns;
        ``"object"`` stores them as dicts and entry lists — same
        answers, same page-access counts, slower hot loops, kept as the
        differential oracle (:mod:`repro.core.columnar`).  This is the
        only selector: the store holds pages of either layout.
    """

    def __init__(
        self,
        space: DataSpace,
        data_capacity: int = 16,
        fanout: int = 16,
        policy: str = "scaled",
        page_bytes: int = 1024,
        store: Storage | None = None,
        tracer: Tracer | None = None,
        layout: str = DEFAULT_LAYOUT,
    ):
        self.space = space
        #: The page layout record, picked once: page constructors and
        #: the untraced query entry points.
        self.page_layout = page_layout(layout)
        self.policy = CapacityPolicy(
            data_capacity=data_capacity,
            fanout=fanout,
            kind=policy,
            page_bytes=page_bytes,
        )
        self.store = store if store is not None else default_store(page_bytes)
        self.store.register_size_class(0, page_bytes)
        #: One tracer for the tree and its store (a caller-supplied store
        #: has its tracer replaced so events land in a single stream).
        self.tracer = tracer if tracer is not None else Tracer()
        self.store.tracer = self.tracer
        self.stats = OpCounters()
        self.count = 0
        self.height = 0
        self.root_page = self.store.allocate(self.make_data_page(), size_class=0)
        #: Per-level registry of live region keys — the canonical key sets
        #: that define region extents (BANG semantics: a region is its
        #: block minus the blocks of same-level keys nested inside it).
        #: Placement and merge decisions consult it for *global* shadow
        #: checks; it is an in-memory acceleration structure, not part of
        #: the paged representation.
        self.keys: dict[int, dict[RegionKey, Entry]] = {}
        #: Regions whose merge was deferred; retried on later deletions
        #: (see :mod:`repro.core.delete`).
        self.merge_retry: set[tuple[int, RegionKey]] = set()

    # ------------------------------------------------------------------
    # Structure plumbing
    # ------------------------------------------------------------------

    def root_entry(self) -> Entry:
        """The virtual entry for the root (the whole data space)."""
        return Entry(ROOT_KEY, self.height, self.root_page)

    @property
    def layout(self) -> str:
        """The page layout's name (``"columnar"`` or ``"object"``)."""
        return self.page_layout.name

    def make_data_page(self) -> DataPage:
        """An empty data page in this tree's layout."""
        return self.page_layout.data_page(self.space)

    def make_index_node(
        self, index_level: int, entries: Sequence[Entry] = ()
    ) -> IndexNode:
        """An index node in this tree's layout."""
        return self.page_layout.index_node(index_level, entries, self.space)

    def register_entry(self, entry: Entry) -> None:
        """Record a region key in the per-level registry (must be new)."""
        level_keys = self.keys.setdefault(entry.level, {})
        if entry.key in level_keys:
            raise TreeInvariantError(
                f"level-{entry.level} key {entry.key!r} registered twice"
            )
        level_keys[entry.key] = entry

    def unregister_entry(self, entry: Entry) -> None:
        """Remove a region key from the registry (must be present)."""
        level_keys = self.keys.get(entry.level)
        if level_keys is None or level_keys.get(entry.key) is not entry:
            raise TreeInvariantError(
                f"level-{entry.level} key {entry.key!r} not registered"
            )
        del level_keys[entry.key]

    def registered(self, level: int, key: RegionKey) -> Entry | None:
        """The live entry with exactly this level and key, if any."""
        return self.keys.get(level, {}).get(key)

    def alloc_index_node(self, node: IndexNode) -> int:
        """Allocate a page for an index node in its policy size class."""
        size_class = self.policy.size_class(node.index_level)
        self.store.register_size_class(
            size_class, self.policy.index_node_bytes(node.index_level)
        )
        return self.store.allocate(node, size_class=size_class)

    def alloc_data_page(self, page: DataPage) -> int:
        """Allocate a page for a data page (size class 0)."""
        return self.store.allocate(page, size_class=0)

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------

    def insert(
        self, point: Sequence[float], value: Any = None, replace: bool = False
    ) -> None:
        """Insert a record; raises DuplicateKeyError unless ``replace``.

        Two points identical in the leading ``space.resolution`` bits of
        every coordinate are the same key to the index.
        """
        # Update ops open spans under the wider ``structural`` guard so a
        # guarantee monitor (update-path kinds only) can group split work
        # per operation; read ops stay on ``enabled``.
        tracer = self.tracer
        if not tracer.structural:
            _insert.insert_point(self, point, value, replace=replace)
            return
        with tracer.operation("insert", point=list(point)):
            _insert.insert_point(self, point, value, replace=replace)

    def get(self, point: Sequence[float]) -> Any:
        """The value stored at ``point`` (KeyNotFoundError if absent)."""
        # The untraced path is written out in full (not delegated to a
        # helper shared with the traced branch): exact match is the
        # tightest perf budget in the repo and one extra frame per get
        # would cost more than the whole tracing check.
        tracer = self.tracer
        if not tracer.enabled:
            # Second guard: a direct-call cost profiler (repro.obs.profile)
            # hooks the untraced read path here — the span machinery would
            # blow its overhead budget, one attribute load will not.  The
            # profiled body is written out inline (a third copy of the
            # lookup) for the same reason the fast path is: an extra
            # frame per get would eat a third of the profiler's own
            # overhead budget.  Latency and page deltas land in the
            # profiler, errors are counted without touching the
            # distributions, and the exception propagates unchanged.
            profiler = tracer.profiler
            if profiler is not None:
                rstats = profiler.rstats
                r0 = (
                    rstats.hits + rstats.misses
                    if profiler.buffered
                    else rstats.reads
                )
                t0 = perf_counter()
                try:
                    path = self.space.point_path(point)
                    entry = self.page_layout.descend(self, path)[0]
                    page: DataPage = self.store.read(entry.page)
                    record = page.get(path)
                    if record is None:
                        raise KeyNotFoundError(f"no record at {tuple(point)}")
                except BaseException:
                    profiler.end_error("get")
                    raise
                profiler.end_get(t0, r0, point)
                return record[1]
            path = self.space.point_path(point)
            # The layout's own descent, without the Locate wrapper: get
            # only needs the winning entry.
            entry = self.page_layout.descend(self, path)[0]
            page = self.store.read(entry.page)
            record = page.get(path)
            if record is None:
                raise KeyNotFoundError(f"no record at {tuple(point)}")
            return record[1]
        with tracer.operation("get", point=list(point)):
            path = self.space.point_path(point)
            found = locate(self, path)
            page = self.store.read(found.entry.page)
            record = page.get(path)
            if record is None:
                raise KeyNotFoundError(f"no record at {tuple(point)}")
            return record[1]

    def get_fast(self, point: Sequence[float]) -> Any:
        """Exact-match lookup through the key registry (O(path bits)).

        Canonical placement means the data page owning a point is the one
        whose key is the longest registered level-0 prefix of the point's
        path — no tree descent needed.  Returns the same answers as
        :meth:`get` (the property tests assert the equivalence, which
        doubles as a canonical-placement audit); unlike :meth:`get`, the
        cost does not model paged I/O, so benchmarks use :meth:`get`.
        """
        path = self.space.point_path(point)
        registry = self.keys.get(0, {})
        for length in range(self.space.path_bits, -1, -1):
            key = RegionKey(length, path >> (self.space.path_bits - length))
            entry = registry.get(key)
            if entry is not None:
                page: DataPage = self.store.read(entry.page)
                record = page.get(path)
                if record is None:
                    raise KeyNotFoundError(f"no record at {tuple(point)}")
                return record[1]
        # No level-0 key registered: the root is still a bare data page.
        page = self.store.read(self.root_page)
        record = page.get(path)
        if record is None:
            raise KeyNotFoundError(f"no record at {tuple(point)}")
        return record[1]

    def bulk_load(
        self,
        records: Iterator[tuple[Sequence[float], Any]] | Sequence[tuple[Sequence[float], Any]],
        replace: bool = False,
    ) -> int:
        """Bulk-build this (empty) tree from ``(point, value)`` records.

        Plans the final data-page partition over the sorted bit paths and
        replays the planned splits through the standard placement
        machinery — one structural operation per page instead of a full
        descent per record, several times faster than repeated
        :meth:`insert` at load scale (see ``docs/PERFORMANCE.md``).  The
        result satisfies every invariant of an incrementally built tree
        (:meth:`check` with ``check_owners=True`` passes) and answers all
        queries identically.  Returns the number of records loaded.

        Raises :class:`~repro.errors.ReproError` if the tree is not
        empty, and :class:`~repro.errors.DuplicateKeyError` on records
        with path-identical points unless ``replace`` is set (the last
        such record in input order then wins, as repeated
        ``insert(..., replace=True)`` would).
        """
        tracer = self.tracer
        if not tracer.structural:
            return _bulk.bulk_load(self, records, replace=replace)
        with tracer.operation("bulk_load"):
            return _bulk.bulk_load(self, records, replace=replace)

    def update_many(
        self,
        records: Iterator[tuple[Sequence[float], Any]] | Sequence[tuple[Sequence[float], Any]],
        replace: bool = True,
    ) -> int:
        """Insert many (point, value) records; returns how many were new."""
        before = self.count
        for point, value in records:
            self.insert(point, value, replace=replace)
        return self.count - before

    def clear(self) -> None:
        """Remove every record and page, resetting to an empty tree.

        The teardown traversal uses the store's uncounted
        :meth:`~repro.storage.Storage.peek`, so clearing a tree does not
        charge page reads — benchmarks that rebuild between runs start
        from clean I/O counters.
        """
        stack = [self.root_entry()]
        pages = []
        while stack:
            entry = stack.pop()
            content = self.store.peek(entry.page)
            pages.append(entry.page)
            if isinstance(content, IndexNode):
                stack.extend(content.entries)
        for page in pages:
            self.store.free(page)
        self.keys.clear()
        self.merge_retry.clear()
        self.count = 0
        self.height = 0
        self.root_page = self.store.allocate(self.make_data_page(), size_class=0)

    def contains(self, point: Sequence[float]) -> bool:
        """True if a record exists at ``point``."""
        try:
            self.get(point)
        except KeyNotFoundError:
            return False
        return True

    def search(self, point: Sequence[float]) -> Locate:
        """Exact-match descent diagnostics (visited pages, guard set size).

        Every descent visits exactly ``height + 1`` pages (paper §6); the
        benchmarks assert this.
        """
        return locate(self, self.space.point_path(point))

    def delete(self, point: Sequence[float]) -> Any:
        """Remove and return the record at ``point`` (KeyNotFoundError if absent)."""
        tracer = self.tracer
        if not tracer.structural:
            return _delete.delete_point(self, point)
        with tracer.operation("delete", point=list(point)):
            return _delete.delete_point(self, point)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def range_query(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> "_query.QueryResult":
        """All records in the half-open box ``[lows, highs)``."""
        tracer = self.tracer
        if not tracer.enabled:
            profiler = tracer.profiler
            if profiler is None:
                return _query.range_query(self, Rect(lows, highs))
            rstats = profiler.rstats
            r0 = (
                rstats.hits + rstats.misses
                if profiler.buffered
                else rstats.reads
            )
            t0 = perf_counter()
            try:
                result = _query.range_query(self, Rect(lows, highs))
            except BaseException:
                profiler.end_error("range")
                raise
            profiler.end_range(t0, r0, lows, highs)
            return result
        with tracer.operation("range", lows=list(lows), highs=list(highs)):
            return _query.range_query(self, Rect(lows, highs))

    def partial_match(
        self, constraints: dict[int, float]
    ) -> "_query.QueryResult":
        """Records matching exact values on a subset of dimensions.

        ``constraints`` maps dimension index to the required value; the
        match granularity is one grid cell of the space's resolution.  The
        BV-tree treats every combination of constrained dimensions
        symmetrically — the defining property asked of an n-dimensional
        B-tree (paper §1).
        """
        return _query.partial_match(self, constraints)

    def nearest(self, point: Sequence[float], k: int = 1) -> "KNNResult":
        """The ``k`` records nearest to ``point`` (Euclidean distance).

        Returns a :class:`~repro.core.knn.KNNResult` with the neighbours
        ordered nearest-first and the traversal's page-access count.
        """
        from repro.core.knn import nearest_neighbours

        tracer = self.tracer
        if not tracer.enabled:
            profiler = tracer.profiler
            if profiler is None:
                return nearest_neighbours(self, point, k=k)
            rstats = profiler.rstats
            r0 = (
                rstats.hits + rstats.misses
                if profiler.buffered
                else rstats.reads
            )
            t0 = perf_counter()
            try:
                result = nearest_neighbours(self, point, k=k)
            except BaseException:
                profiler.end_error("knn")
                raise
            profiler.end_knn(t0, r0, point, k)
            return result
        with tracer.operation("knn", point=list(point), k=k):
            return nearest_neighbours(self, point, k=k)

    def explain(
        self,
        point: Sequence[float] | None = None,
        *,
        rect: tuple[Sequence[float], Sequence[float]] | None = None,
        knn: Sequence[float] | None = None,
        k: int = 1,
    ) -> "ExplainReport":
        """EXPLAIN a query: what it visited, pruned, and why.

        Exactly one of ``point`` (exact match), ``rect=(lows, highs)``
        (range query) or ``knn`` (k-nearest, with ``k``) must be given.
        The query runs for real under a temporary capture tracer — the
        tree is read but not modified, and the caller's tracer is
        restored afterwards — and the captured event slice is folded
        into an :class:`~repro.obs.ExplainReport` (see
        :mod:`repro.obs.explain`).
        """
        from repro.obs import explain as _explain

        given = sum(1 for q in (point, rect, knn) if q is not None)
        if given != 1:
            raise ReproError(
                "explain() takes exactly one of point=..., rect=..., "
                f"knn=...; got {given}"
            )
        if point is not None:
            return _explain.explain_point(self, point)
        if rect is not None:
            lows, highs = rect
            return _explain.explain_range(self, lows, highs)
        if knn is not None:
            return _explain.explain_knn(self, knn, k=k)
        raise TreeInvariantError("explain() dispatch fell through")

    def items(self) -> Iterator[tuple[tuple[float, ...], Any]]:
        """Iterate all (point, value) records (unspecified order)."""
        stack = [self.root_entry()]
        while stack:
            entry = stack.pop()
            if entry.level == 0:
                page: DataPage = self.store.read(entry.page)
                yield from page.records.values()
            else:
                node: IndexNode = self.store.read(entry.page)
                stack.extend(node.entries)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def tree_stats(self) -> TreeStats:
        """Structural statistics (heights, occupancies, guard counts)."""
        return collect(self)

    def check(
        self,
        sample_points: int = 0,
        check_occupancy: bool = True,
        check_owners: bool = False,
        check_justification: bool | None = None,
    ) -> None:
        """Verify all structural invariants; raises TreeInvariantError.

        With ``sample_points > 0``, additionally re-locates that many
        stored records through the public search path; ``check_owners``
        verifies the single-descent owner-lookup property for every entry.
        """
        from repro.core.checker import check_tree

        check_tree(
            self,
            sample_points=sample_points,
            check_occupancy=check_occupancy,
            check_owners=check_owners,
            check_justification=check_justification,
        )

    def __len__(self) -> int:
        return self.count

    def __contains__(self, point: Sequence[float]) -> bool:
        return self.contains(point)

    def __repr__(self) -> str:
        return (
            f"BVTree({self.count} points, height={self.height}, "
            f"{self.policy!r})"
        )
