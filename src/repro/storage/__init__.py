"""Paged-storage simulator.

The paper's guarantees are stated in terms of *pages*: data pages holding at
most ``P`` points, index pages holding at most ``F`` entries (possibly
scaled with the index level, §7.3), and the number of pages touched by an
operation.  This subpackage provides a small storage engine that makes
those quantities observable:

- :class:`~repro.storage.pager.PageStore` — allocation, read, write and
  free of pages, with exact I/O counters and per-size-class accounting.
- :class:`~repro.storage.buffer.BufferPool` — an LRU read-through cache on
  top of a store, distinguishing logical from physical reads.
- :class:`~repro.storage.interface.Storage` — the protocol both
  implement, which is all the index structures in :mod:`repro.core` are
  allowed to depend on (lint rule R3); :func:`default_store` builds the
  default backend for callers that do not supply one.
- :class:`~repro.storage.stats.IOStats` — the counter bundle.
- :mod:`repro.storage.durable` — the crash-safe file-backed backend:
  :class:`~repro.storage.durable.DurableStore` (WAL + checkpointed page
  file behind the same protocol) and its recovery entry points.  It is
  imported explicitly, not re-exported here, so the in-memory simulator
  stays import-light; :class:`~repro.storage.faults.FaultPlan` — the
  injectable crash scenarios the durable backend honours — is re-exported
  because it is pure configuration.

Pages store live Python objects rather than serialised bytes: every claim
reproduced from the paper is about page *counts*, heights and occupancies,
which are identical either way, while byte-level serialisation would only
slow the simulator down.  Byte sizes enter through the declared size class
of a page (see §7.3 multiple page sizes) used by the analysis module.
"""

from repro.storage.buffer import BufferPool
from repro.storage.faults import FaultPlan
from repro.storage.interface import Storage, default_store
from repro.storage.pager import PageStore
from repro.storage.stats import BufferStats, IOStats, SizeClassStats

#: A second name for :class:`PageStore`, kept only because the served
#: benchmark's self-test (``perfbench/selftest.py``) imports it.  A store
#: no longer picks a page layout: ``BVTree(layout=...)`` does.
ColumnarStore = PageStore

__all__ = [
    "BufferPool",
    "BufferStats",
    "ColumnarStore",
    "FaultPlan",
    "IOStats",
    "PageStore",
    "SizeClassStats",
    "Storage",
    "default_store",
]
