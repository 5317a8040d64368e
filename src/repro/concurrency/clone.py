"""Commit-time page cloning for the snapshot layer.

Pages are live Python objects mutated in place by the tree algorithms
(``page = store.read(pid); page.insert(...); store.write(pid, page)``
writes back the *same* object), so a concurrent reader cannot simply
pin a page-table reference — it would watch the writer's mutations
happen under it.  Instead the service publishes deep-enough copies: a
clone shares only immutable values (``RegionKey``, coordinate tuples,
record values) with the live page, never a mutable container.

Cloning cost is bounded by page capacity: a data page is one dict (or
three columns) copy, an index node one entry-list rebuild.  Only pages
dirtied by the committing operation are cloned (see
:class:`repro.concurrency.TreeService`); the committed page table is a
:class:`~repro.concurrency.snapshots.PageTable` whose commit copies
only the chunks holding those dirty ids and shares every other clone
reference with the previous version.
"""

from __future__ import annotations

from typing import Any

from repro.core.columnar import ColumnarDataPage, ColumnarIndexNode
from repro.core.entry import Entry
from repro.core.node import DataPage, IndexNode
from repro.errors import ReproError

__all__ = ["clone_entry", "clone_page"]


def clone_entry(entry: Entry) -> Entry:
    """A fresh :class:`Entry` with the same key, level and page id.

    Entries are tiny mutable triples; sharing them between a committed
    version and the live tree would let an in-place relink (e.g. a
    split rewriting ``entry.page``) leak into a published snapshot.
    The ``RegionKey`` itself is immutable and stays shared.
    """
    return Entry(entry.key, entry.level, entry.page)


def clone_page(content: Any) -> Any:
    """Deep-enough copy of one page payload (data page or index node).

    Handles all four page classes of both layouts.  Subclass checks run
    most-specific first: a ``ColumnarDataPage`` *is a* ``DataPage`` (its
    ``records`` is a materialised read-only view, not the storage), so
    order matters.
    """
    if isinstance(content, ColumnarDataPage):
        # The column containers are columnar.py's invariant to copy.
        return content.clone()
    if isinstance(content, ColumnarIndexNode):
        return ColumnarIndexNode(
            content.index_level,
            [clone_entry(e) for e in content.entries],
            ndim=content.ndim,
            resolution=content.resolution,
            path_bits=content.path_bits,
        )
    if isinstance(content, IndexNode):
        return IndexNode(
            content.index_level, [clone_entry(e) for e in content.entries]
        )
    if isinstance(content, DataPage):
        page = DataPage()
        page.records.update(content.records)
        return page
    raise ReproError(
        f"cannot clone page payload of type {type(content).__name__}"
    )
