"""Immutable point-in-time views of a served tree.

A :class:`TreeVersion` is one published committed state: a frozen
:class:`PageTable` (page id -> payload) plus the tree metadata
that changes under writes (root page, height, record count) and the
version's place in the committed write history (``lsn``).  Versions are
never mutated after publication — the service derives a *new* table for
every commit and swaps one reference — so pinning a version is just
holding it, and a reader never observes a half-applied split cascade by
construction.

A :class:`Snapshot` wraps a version with the tree state the core read
paths consume (``space``, ``page_layout``, ``height``, ``root_page``,
``store``, ``tracer``) and binds :class:`~repro.core.BVTree`'s read
methods in its class body, so exact-match descent, range queries and
k-NN run *unchanged* against a snapshot — the same methods, the same
page-access counts, frozen data.  Its tracer never has a subscriber, so
a snapshot read takes the tree's untraced branch.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.core.columnar import PageLayout
from repro.core.entry import Entry
from repro.core.node import IndexNode
from repro.core.policy import CapacityPolicy
from repro.core.tree import BVTree
from repro.errors import PageNotFoundError, StorageError
from repro.geometry.space import DataSpace
from repro.obs.tracer import Tracer

__all__ = ["PageTable", "Snapshot", "TreeVersion", "VersionStore"]

#: log2 of the page ids per :class:`PageTable` chunk: page ``pid`` lives
#: in chunk ``pid >> CHUNK_BITS``.
CHUNK_BITS = 6

#: The subscriber-less tracer every snapshot and version store shares
#: (one per served read would cost more than its guard); never subscribe.
UNTRACED = Tracer()


class PageTable:
    """A persistent page-id -> payload map, updated in O(dirty) per commit.

    A dict *spine* maps ``pid >> CHUNK_BITS`` to a chunk dict holding at
    most ``2 ** CHUNK_BITS`` pages.  :meth:`updated` copies the spine
    plus only the chunks holding changed ids; every untouched chunk is
    shared by identity with the previous table, so a commit that dirties
    a handful of pages costs ``pages / 64`` spine entries plus a few
    64-slot chunks instead of a copy of the whole table.  A chunk that
    becomes empty leaves the spine: page stores never reuse ids, so
    without that the spine would keep growing under churn.

    Tables are immutable once built — a published version's table is
    shared by every reader holding it.
    """

    __slots__ = ("chunks", "_size")

    def __init__(self, chunks: dict[int, dict[int, Any]], size: int):
        #: chunk number -> {page id: payload}; never mutated after
        #: construction (the snapshot read path indexes it directly).
        self.chunks = chunks
        self._size = size

    @classmethod
    def from_items(cls, items: Iterable[tuple[int, Any]]) -> "PageTable":
        """A table holding ``items`` (later duplicates win)."""
        return cls({}, 0).updated(dict(items))

    def updated(
        self, puts: Mapping[int, Any], drops: Iterable[int] = ()
    ) -> "PageTable":
        """A new table with ``puts`` stored and ``drops`` removed.

        ``self`` is left untouched.  Dropping an id the table does not
        hold is a no-op (a page allocated and freed inside one commit).
        """
        spine = dict(self.chunks)
        copied: dict[int, dict[int, Any]] = {}
        size = self._size
        for pid, content in puts.items():
            key = pid >> CHUNK_BITS
            chunk = copied.get(key)
            if chunk is None:
                chunk = copied[key] = spine[key] = dict(spine.get(key, ()))
            if pid not in chunk:
                size += 1
            chunk[pid] = content
        for pid in drops:
            key = pid >> CHUNK_BITS
            chunk = copied.get(key)
            if chunk is None:
                if pid not in spine.get(key, ()):
                    continue
                chunk = copied[key] = spine[key] = dict(spine[key])
            if pid in chunk:
                del chunk[pid]
                size -= 1
        for key, chunk in copied.items():
            if not chunk:
                del spine[key]
        return PageTable(spine, size)

    def __getitem__(self, page_id: int) -> Any:
        return self.chunks[page_id >> CHUNK_BITS][page_id]

    def __contains__(self, page_id: int) -> bool:
        return page_id in self.chunks.get(page_id >> CHUNK_BITS, ())

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        for chunk in self.chunks.values():
            yield from chunk


class TreeVersion:
    """One committed state of a served tree (frozen after publication)."""

    __slots__ = ("pages", "root_page", "height", "count", "lsn", "wal_seq")

    def __init__(
        self,
        pages: PageTable,
        root_page: int,
        height: int,
        count: int,
        lsn: int,
        wal_seq: int | None = None,
    ):
        #: page id -> payload, shared with the live store until a write
        #: replaces it.  Treated as immutable from here on.
        self.pages = pages
        self.root_page = root_page
        self.height = height
        self.count = count
        #: Number of commits published before and including this one —
        #: the position in the committed write history this version
        #: corresponds to (the linearizability tests key on it).
        self.lsn = lsn
        #: The durable store's WAL sequence at publication, when the
        #: served tree is WAL-backed (``None`` for in-memory stores).
        self.wal_seq = wal_seq

    def __repr__(self) -> str:
        return (
            f"TreeVersion(lsn={self.lsn}, {self.count} points, "
            f"height={self.height}, {len(self.pages)} pages)"
        )


class VersionStore:
    """Read-only ``Storage`` facade over one version's page table.

    Only the read surface exists; every mutator raises.  ``read`` counts
    logical reads per *store instance* — each snapshot owns its own
    ``VersionStore``, so per-query page-access numbers stay exact without
    any shared mutable state between readers (the per-snapshot strategy
    for the read-path counter races; see ``docs/SERVING.md``).
    """

    __slots__ = ("_pages", "_chunks", "tracer", "reads")

    def __init__(self, pages: PageTable):
        self._pages = pages
        #: The table's spine, indexed inline by ``read``/``peek`` so the
        #: snapshot read path pays no extra method call per page.
        self._chunks = pages.chunks
        #: Never traced (the read paths consult the store's tracer).
        self.tracer = UNTRACED
        self.reads = 0

    def read(self, page_id: int) -> Any:
        try:
            content = self._chunks[page_id >> CHUNK_BITS][page_id]
        except KeyError:
            raise PageNotFoundError(
                f"page {page_id} not in this snapshot"
            ) from None
        self.reads += 1
        return content

    def peek(self, page_id: int) -> Any:
        try:
            return self._chunks[page_id >> CHUNK_BITS][page_id]
        except KeyError:
            raise PageNotFoundError(
                f"page {page_id} not in this snapshot"
            ) from None

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    # -- mutators: snapshots are frozen ---------------------------------

    def allocate(self, content: Any = None, size_class: int = 0) -> int:
        raise StorageError("snapshot stores are read-only")

    def write(self, page_id: int, content: Any) -> None:
        raise StorageError("snapshot stores are read-only")

    def free(self, page_id: int) -> None:
        raise StorageError("snapshot stores are read-only")


class Snapshot:
    """A pinned, consistent, read-only view of a served tree.

    Obtained from :meth:`repro.concurrency.TreeService.snapshot`; cheap
    (no copying — a published page is never changed) and wait-free (no
    lock is taken).  The snapshot stays valid for as long as the object
    is referenced, entirely independent of later writes, crashes or
    store poisoning.

    A snapshot is safe to *share* across reader threads for queries —
    everything reachable is frozen — but its convenience page counter
    (``store.reads``) is per-instance and approximate under sharing;
    open one snapshot per reader when exact per-reader counts matter.

    Snapshot reads are never traced: every snapshot shares the
    subscriber-less :data:`UNTRACED` tracer.
    """

    __slots__ = ("version", "space", "policy", "page_layout", "store", "tracer")

    def __init__(
        self,
        version: TreeVersion,
        space: DataSpace,
        policy: CapacityPolicy,
        page_layout: PageLayout,
    ):
        self.version = version
        self.space = space
        self.policy = policy
        self.page_layout = page_layout
        self.store = VersionStore(version.pages)
        self.tracer = UNTRACED

    # -- the tree state the core read paths consume ----------------------

    @property
    def height(self) -> int:
        return self.version.height

    @property
    def root_page(self) -> int:
        return self.version.root_page

    @property
    def count(self) -> int:
        return self.version.count

    @property
    def lsn(self) -> int:
        return self.version.lsn

    # -- reads: BVTree's own methods, bound to this frozen version -------

    root_entry = BVTree.root_entry
    layout = BVTree.layout
    config = BVTree.config
    get = BVTree.get
    contains = BVTree.contains
    search = BVTree.search
    range_query = BVTree.range_query
    partial_match = BVTree.partial_match
    nearest = BVTree.nearest
    items = BVTree.items
    __len__ = BVTree.__len__
    __contains__ = BVTree.__contains__

    # -- validation -----------------------------------------------------

    def materialize(self) -> BVTree:
        """Rebuild a standalone :class:`~repro.core.BVTree` of this version.

        Clones every data page and builds every index node afresh, with
        new entries, into a fresh in-memory store (page ids are
        remapped; the logical structure — keys, levels, guards, record
        placement — is preserved exactly) and hands the root to
        :meth:`~repro.core.BVTree.adopt`, which rebuilds the per-level
        key registry.  The result is a fully independent tree the
        structural checker and the guarantee doctor can run against,
        which is how the lockstep suite proves a snapshot can never
        expose a torn split cascade or guard-set inconsistency.
        """
        tree = BVTree.from_config(self.config())
        pages = self.version.pages

        def copy(page_id: int) -> int:
            content = pages[page_id]
            if isinstance(content, IndexNode):
                entries = [
                    Entry(e.key, e.level, copy(e.page)) for e in content.entries
                ]
                return tree.alloc_index_node(
                    tree.make_index_node(content.index_level, entries)
                )
            return tree.alloc_data_page(content.clone())

        tree.adopt(copy(self.root_page))
        return tree

    def __repr__(self) -> str:
        return f"Snapshot(lsn={self.lsn}, {self.count} points)"
