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

from repro.core.node import DataPage, IndexNode
from repro.errors import ReproError

__all__ = ["clone_page"]


def clone_page(content: Any) -> Any:
    """Deep-enough copy of one page payload (data page or index node).

    Every page class of both layouts copies itself (``clone()``): the
    clone shares only immutable values with the original.
    """
    if isinstance(content, (DataPage, IndexNode)):
        return content.clone()
    raise ReproError(
        f"cannot clone page payload of type {type(content).__name__}"
    )
