"""Crash recovery: ARIES-lite redo-only replay of the WAL.

Algorithm (:func:`recover_store`):

1. **Load the checkpoint.**  Parse ``pages.dat`` strictly (it was
   fsynced before it was installed, so damage is real corruption); a
   missing file means the store never checkpointed and the WAL is the
   whole story.  The header yields the page table, size classes,
   metadata, allocation cursor — and the *WAL floor*, the sequence
   number of the last record the checkpoint absorbed.
2. **Scan the WAL.**  Accept every record that frames and checksums,
   stop at the first that does not: a torn tail is the expected
   signature of a crash and is discarded silently
   (:func:`~repro.storage.durable.wal.scan_wal`).
3. **Pick the committed transactions.**  Every record carries its
   transaction id (``x``); a transaction counts only if its
   ``commit`` marker survived in the valid prefix.  Records of
   uncommitted transactions — typically the operation that was in
   flight when the process died — are discarded, so no partial
   operation is ever visible.
4. **Redo.**  Replay committed records with sequence number above the
   floor, in log order, over the checkpoint image: page allocs, writes,
   frees, size-class registrations, metadata.  An ``alloc`` carries the
   page's full image, and so does an index node's ``write``; a data
   page's ``write`` carries only a delta against its last committed
   image (the records added or replaced and the paths removed),
   applied onto the image built so far — the checkpoint slot, for a
   page's first write after a reopen.  A delta is not idempotent, so
   each record is applied exactly once: the floor skips what the
   checkpoint already holds.
5. **Re-checkpoint.**  Write the recovered image as a fresh checkpoint,
   then open a fresh WAL whose sequence counter continues past
   everything ever logged.  Recovering an already-recovered directory
   is therefore a no-op on the state — recovery is idempotent, and the
   property suite proves it.

:func:`rebuild_tree` then reconstructs a live
:class:`~repro.core.tree.BVTree` over the recovered store: the root is
the unique live page no index entry references,
:meth:`~repro.core.tree.BVTree.adopt` rebuilds the registry by walking
the entries (the same walk a JSON snapshot load and
:meth:`~repro.concurrency.Snapshot.materialize` use), every live page
must be reached, and the result must pass the structural checker (with
the same occupancy/justification relaxations a snapshot load uses —
those invariants depend on *operation history*, which a recovered
process no longer has).

Recovery narrates itself through an optional tracer —
``recovery_begin``, one ``wal_replay`` per redone record,
``recovery_end`` — so the observability layer (and ``repro recover
--trace``) can audit what replay did.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.core.columnar import DEFAULT_LAYOUT
from repro.core.node import IndexNode
from repro.core.policy import CapacityPolicy
from repro.core.tree import BVTree, tree_config
from repro.errors import RecoveryError, TreeInvariantError
from repro.geometry.space import DataSpace
from repro.obs.events import RECOVERY_BEGIN, RECOVERY_END, WAL_REPLAY
from repro.obs.tracer import Tracer
from repro.storage.durable.pagefile import StoreState, load_state
from repro.storage.durable.store import (
    PAGEFILE_NAME,
    TMP_PAGEFILE_NAME,
    WAL_NAME,
    DurableStore,
)
from repro.storage.durable.wal import (
    REC_ALLOC,
    REC_CLASS,
    REC_COMMIT,
    REC_COMMIT_FLAG,
    REC_FREE,
    REC_META,
    REC_WRITE,
    RECORD_NAMES,
    base_type,
    scan_wal,
)
from repro.storage.durable import codec
from repro.storage.faults import FaultPlan

__all__ = [
    "RecoveryReport",
    "create_durable_tree",
    "open_durable_tree",
    "rebuild_tree",
    "recover_store",
]

#: Meta key under which :func:`create_durable_tree` persists the tree's
#: geometry and policy so :func:`rebuild_tree` can reconstruct it.
TREE_META_KEY = "tree"


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    directory: str
    #: WAL records that parsed (committed or not, stale or not).
    records_scanned: int = 0
    #: Records redone onto the checkpoint image.
    records_replayed: int = 0
    #: Parsed records discarded as uncommitted.
    records_uncommitted: int = 0
    #: Parsed records skipped as already absorbed by the checkpoint.
    records_stale: int = 0
    #: Torn/garbage bytes cut off the WAL tail (0 for a clean log).
    torn_bytes: int = 0
    #: Committed transactions replayed.
    committed_txns: int = 0
    #: Operation names of replayed commits, in commit order — the
    #: committed-op log the differential oracle replays.
    op_commits: list[str] = field(default_factory=list)
    #: The checkpoint's WAL floor (0 when there was no checkpoint).
    checkpoint_seq: int = 0
    #: Highest WAL sequence number seen (the new WAL continues above it).
    last_seq: int = 0
    #: Live pages in the recovered image.
    pages: int = 0
    #: Whether a checkpoint image existed.
    had_checkpoint: bool = False

    @property
    def torn_tail(self) -> bool:
        """True when a torn/garbage WAL tail was discarded."""
        return self.torn_bytes > 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the CLI's ``--json`` output)."""
        return {
            "directory": self.directory,
            "records_scanned": self.records_scanned,
            "records_replayed": self.records_replayed,
            "records_uncommitted": self.records_uncommitted,
            "records_stale": self.records_stale,
            "torn_bytes": self.torn_bytes,
            "torn_tail": self.torn_tail,
            "committed_txns": self.committed_txns,
            "op_commits": list(self.op_commits),
            "checkpoint_seq": self.checkpoint_seq,
            "last_seq": self.last_seq,
            "pages": self.pages,
            "had_checkpoint": self.had_checkpoint,
        }

    def summary(self) -> str:
        """A compact human-readable account of the pass."""
        checkpoint = (
            f"checkpoint@{self.checkpoint_seq}"
            if self.had_checkpoint
            else "no checkpoint"
        )
        tail = f", {self.torn_bytes}B torn tail" if self.torn_tail else ""
        return (
            f"{checkpoint}; scanned {self.records_scanned} WAL records"
            f"{tail}; replayed {self.records_replayed} across "
            f"{self.committed_txns} committed txns "
            f"(discarded {self.records_uncommitted} uncommitted, "
            f"{self.records_stale} stale); {self.pages} live pages"
        )


def recover_store(
    directory: str | os.PathLike[str],
    *,
    faults: FaultPlan | None = None,
    sync: str = "commit",
    tracer: Tracer | None = None,
    default_page_bytes: int = 4096,
) -> tuple[DurableStore, RecoveryReport]:
    """Rebuild a :class:`DurableStore` from a crashed (or closed) directory.

    Returns the opened store and a :class:`RecoveryReport`.  The
    ``faults``/``sync`` options configure the *new* store, so a recovery
    can itself be crash-tested.  ``default_page_bytes`` only matters for
    the degenerate directory that has neither a checkpoint nor a single
    durable metadata record.
    """
    directory = os.fspath(directory)
    wal_path = os.path.join(directory, WAL_NAME)
    pagefile_path = os.path.join(directory, PAGEFILE_NAME)
    if not (os.path.exists(wal_path) or os.path.exists(pagefile_path)):
        # Recovering a mistyped path must not create a store there.
        raise RecoveryError(
            f"{directory} holds no durable store "
            f"(neither {WAL_NAME} nor {PAGEFILE_NAME} exists)"
        )
    report = RecoveryReport(directory=directory)
    if tracer is not None:
        tracer.emit(RECOVERY_BEGIN, directory=directory)

    state = load_state(pagefile_path)
    report.had_checkpoint = state is not None
    if state is None:
        state = StoreState(page_bytes=default_page_bytes)
    report.checkpoint_seq = state.wal_seq

    scan = scan_wal(wal_path)
    report.records_scanned = len(scan.records)
    report.torn_bytes = scan.discarded_bytes
    report.last_seq = max(scan.last_seq, state.wal_seq)

    live = scan.records
    committed = {
        payload["x"]
        for seq, rtype, payload in live
        if seq > state.wal_seq
        and (rtype & REC_COMMIT_FLAG or rtype == REC_COMMIT)
    }
    report.committed_txns = len(committed)

    pages = dict(state.pages)
    classes = dict(state.classes)
    meta = dict(state.meta)
    next_id = state.next_id
    for seq, raw_type, payload in live:
        if seq <= state.wal_seq:
            report.records_stale += 1
            continue
        if payload.get("x") not in committed:
            report.records_uncommitted += 1
            continue
        rtype = base_type(raw_type)
        if raw_type & REC_COMMIT_FLAG or rtype == REC_COMMIT:
            report.op_commits.append(str(payload.get("op", "auto")))
            if rtype == REC_COMMIT:
                # A standalone marker carries no mutation to replay.
                continue
        if tracer is not None and tracer.structural:
            tracer.emit(
                WAL_REPLAY,
                wal_seq=seq,
                record=RECORD_NAMES.get(rtype, str(rtype)),
            )
        if rtype == REC_ALLOC:
            page_id = payload["id"]
            if page_id in pages:
                raise RecoveryError(
                    f"WAL record {seq} allocates page {page_id}, "
                    f"which is already live"
                )
            pages[page_id] = (payload["sc"], codec.decode_content(payload["c"]))
            next_id = max(next_id, page_id + 1)
        elif rtype == REC_WRITE:
            page_id = payload["id"]
            if page_id not in pages:
                raise RecoveryError(
                    f"WAL record {seq} writes page {page_id}, "
                    f"which is not live"
                )
            size_class, content = pages[page_id]
            if "dk" in payload:
                # Data-page delta: apply on top of the image built so
                # far (checkpoint slot or earlier replayed records).
                content = codec.apply_data_delta(content, payload)
            else:
                content = codec.decode_content(payload["c"])
            pages[page_id] = (size_class, content)
        elif rtype == REC_FREE:
            page_id = payload["id"]
            if page_id not in pages:
                raise RecoveryError(
                    f"WAL record {seq} frees page {page_id}, "
                    f"which is not live"
                )
            del pages[page_id]
        elif rtype == REC_CLASS:
            classes[payload["sc"]] = payload["b"]
        elif rtype == REC_META:
            meta[payload["key"]] = payload["v"]
        else:
            raise RecoveryError(
                f"WAL record {seq} has unexpected type {rtype}"
            )
        report.records_replayed += 1

    page_bytes = classes.get(0, meta.get("__page_bytes__", state.page_bytes))
    recovered = StoreState(
        page_bytes=page_bytes,
        next_id=next_id,
        wal_seq=report.last_seq,
        meta=meta,
        classes=classes,
        pages=pages,
    )
    report.pages = len(pages)
    store = DurableStore._from_state(
        directory,
        recovered,
        faults=faults,
        sync=sync,
        start_seq=report.last_seq,
    )
    tmp_path = os.path.join(directory, TMP_PAGEFILE_NAME)
    if os.path.exists(tmp_path):
        os.remove(tmp_path)  # a checkpoint torn mid-write; never installed
    if tracer is not None:
        tracer.emit(
            RECOVERY_END,
            directory=directory,
            pages=report.pages,
            replayed=report.records_replayed,
            committed_txns=report.committed_txns,
            torn_tail=report.torn_tail,
        )
    return store, report


# ----------------------------------------------------------------------
# Tree-level convenience layer
# ----------------------------------------------------------------------


def create_durable_tree(
    directory: str | os.PathLike[str],
    space: DataSpace,
    *,
    data_capacity: int = 16,
    fanout: int = 16,
    policy: str = "scaled",
    page_bytes: int = 1024,
    layout: str = DEFAULT_LAYOUT,
    faults: FaultPlan | None = None,
    sync: str = "commit",
) -> BVTree:
    """A fresh BV-tree over a fresh durable store in ``directory``.

    The tree's geometry, policy and page layout are persisted as durable
    metadata so :func:`open_durable_tree` can rebuild the same tree after
    a crash.
    """
    store = DurableStore(directory, page_bytes, faults=faults, sync=sync)
    store.set_meta("__page_bytes__", page_bytes)
    record = tree_config(
        space,
        CapacityPolicy(
            data_capacity=data_capacity,
            fanout=fanout,
            kind=policy,
            page_bytes=page_bytes,
        ),
        layout,
    )
    store.set_meta(TREE_META_KEY, record)
    return BVTree.from_config(record, store=store)


def rebuild_tree(store: DurableStore) -> BVTree:
    """Reconstruct a live :class:`BVTree` over a recovered store.

    The store must carry the record :func:`create_durable_tree` wrote.
    The root is the one live page no index entry references;
    :meth:`BVTree.adopt` walks the graph under it, and every live page
    must be reached.  The rebuilt tree passes the structural checker
    with the occupancy and justification checks relaxed, exactly as a
    snapshot load does: both invariants are statements about operation
    *history* (deferred merges, escape hatches) that a recovered
    process no longer has.
    """
    record = store.meta.get(TREE_META_KEY)
    if record is None:
        raise RecoveryError(
            f"store in {store.directory} carries no tree metadata "
            f"({TREE_META_KEY!r}); was it created with create_durable_tree?"
        )
    existing = set(store.page_ids())
    tree = BVTree.from_config(record, store=store)
    if not existing:
        return tree  # the store was empty; keep the fresh root

    referenced: set[int] = set()
    for page_id in existing:
        content = store.peek(page_id)
        if isinstance(content, IndexNode):
            referenced.update(entry.page for entry in content.entries)
    roots = existing - referenced
    if len(roots) != 1:
        raise RecoveryError(
            f"recovered image has {len(roots)} root candidates "
            f"({sorted(roots)}); a consistent tree has exactly one"
        )
    root_page = roots.pop()
    try:
        visited = tree.adopt(root_page)
    except TreeInvariantError as exc:
        raise RecoveryError(f"recovered {exc}") from exc
    if visited != existing:
        raise RecoveryError(
            f"recovered image has {len(existing - visited)} orphan pages "
            f"unreachable from root {root_page}"
        )
    tree.check(check_occupancy=False, check_justification=False)
    return tree


def open_durable_tree(
    directory: str | os.PathLike[str],
    *,
    faults: FaultPlan | None = None,
    sync: str = "commit",
    tracer: Tracer | None = None,
) -> tuple[BVTree, RecoveryReport]:
    """Recover ``directory`` and rebuild its tree in one call."""
    store, report = recover_store(
        directory, faults=faults, sync=sync, tracer=tracer
    )
    tree = rebuild_tree(store)
    return tree, report
