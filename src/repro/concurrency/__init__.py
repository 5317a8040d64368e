"""Single-writer / many-readers concurrency over the ``Storage`` protocol.

The layers above the core tree (WAL, profiler, doctor, server) all
assume *someone* arbitrates concurrent access; this package is that
someone.  :class:`TreeService` serializes writes and, from the store's
per-transaction record of touched pages, publishes immutable
:class:`~repro.concurrency.snapshots.TreeVersion` objects; readers pin
versions wait-free via :meth:`TreeService.snapshot` and run the ordinary
core read paths against them.  ``tests/concurrency/lockstep.py`` is the
harness that proves the construction linearizable for the single-writer
case (see ``docs/SERVING.md``).

The core tree itself stays single-threaded and free of concurrency
primitives — lint rule R15 bans ``threading``/``asyncio`` from
``repro.core``; concurrency lives here, at the storage/server boundary,
per the same discipline that keeps backends out of the core (R3).
"""

from repro.concurrency.service import (
    BatchAbortedError,
    TreeService,
    delete_op,
    insert_op,
)
from repro.concurrency.snapshots import (
    PageTable,
    Snapshot,
    TreeVersion,
    VersionStore,
)

__all__ = [
    "BatchAbortedError",
    "PageTable",
    "Snapshot",
    "TreeService",
    "TreeVersion",
    "VersionStore",
    "delete_op",
    "insert_op",
]
