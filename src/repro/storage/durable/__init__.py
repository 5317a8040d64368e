"""Crash-safe durable storage: WAL-backed page store and recovery.

The in-memory :class:`~repro.storage.pager.PageStore` makes the paper's
page-count guarantees observable; this subpackage makes them *durable*.
A :class:`DurableStore` is a drop-in :class:`~repro.storage.Storage`
backend (it subclasses the page store, so accounting and trace emission
are identical) that shadows every mutation into a write-ahead log and
periodically compacts the log into a checksummed page-file checkpoint.
After a crash — real or injected through a
:class:`~repro.storage.faults.FaultPlan` — :func:`recover_store`
replays the committed WAL suffix over the checkpoint and reopens the
store; :func:`open_durable_tree` additionally rebuilds the live
:class:`~repro.core.tree.BVTree` and re-verifies its invariants.

Module map:

- :mod:`~repro.storage.durable.codec` — JSON content codec for pages;
- :mod:`~repro.storage.durable.wal` — record framing, the append-side
  log, the tolerant scanner;
- :mod:`~repro.storage.durable.pagefile` — the checkpoint image format
  and its strict loader;
- :mod:`~repro.storage.durable.store` — :class:`DurableStore`, its
  explicit per-operation transactions and pre-image delta bases;
- :mod:`~repro.storage.durable.recovery` — redo replay, tree rebuild,
  the :class:`RecoveryReport`.

See ``docs/DURABILITY.md`` for the formats, the recovery algorithm and
a fault-plan cookbook.
"""

from repro.storage.durable.store import DurableStore
from repro.storage.durable.recovery import (
    RecoveryReport,
    create_durable_tree,
    open_durable_tree,
    rebuild_tree,
    recover_store,
)

__all__ = [
    "DurableStore",
    "RecoveryReport",
    "create_durable_tree",
    "open_durable_tree",
    "rebuild_tree",
    "recover_store",
]
