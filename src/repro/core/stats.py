"""Operation counters and structural statistics of a BV-tree."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.node import DataPage, IndexNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tree import BVTree


@dataclass
class OpCounters:
    """Counts of structural events since the tree was created.

    ``deferred_splits``/``deferred_merges`` count the conservative escapes
    documented in DESIGN.md (an all-guard node too small to split, a merge
    skipped for lack of a safe partner); they are zero in every workload
    the benchmarks run, and the invariant checker reports them.
    """

    inserts: int = 0
    deletes: int = 0
    #: Records loaded through :meth:`~repro.core.tree.BVTree.bulk_load`
    #: (which plans splits up front, so they are *not* counted as
    #: ``inserts``; its planned page splits do count as ``data_splits``).
    bulk_loaded: int = 0
    data_splits: int = 0
    index_splits: int = 0
    promotions: int = 0
    demotions: int = 0
    merges: int = 0
    redistributions: int = 0
    deferred_splits: int = 0
    deferred_merges: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> "OpCounters":
        """An independent copy of the current counter values.

        Mirrors :meth:`repro.storage.stats.IOStats.snapshot`, so perf
        scenarios and the metrics registry can diff counters between two
        samples without a destructive :meth:`reset` in between.
        """
        return OpCounters(
            **{name: getattr(self, name) for name in self.__dataclass_fields__}
        )

    def delta(self, since: "OpCounters") -> "OpCounters":
        """Counters accumulated since an earlier :meth:`snapshot`.

        A ``reset()`` between the snapshot and this call yields negative
        components — the same semantics as :meth:`IOStats.delta`; diff
        only monotone samples.
        """
        return OpCounters(
            **{
                name: getattr(self, name) - getattr(since, name)
                for name in self.__dataclass_fields__
            }
        )

    def to_dict(self) -> dict[str, int]:
        """The counters as a plain mapping (JSON-ready)."""
        return {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }


@dataclass
class TreeStats:
    """A structural snapshot of a BV-tree (see :func:`collect`)."""

    height: int
    n_points: int
    data_pages: int
    index_nodes: int
    index_nodes_by_level: dict[int, int]
    guards_by_level: dict[int, int]
    total_guards: int
    #: Smallest data-page/index-node population, excluding the root —
    #: the paper's occupancy guarantee never applies to the root (a
    #: B-tree's root is exempt for the same reason).
    min_data_occupancy: int
    avg_data_occupancy: float
    min_index_occupancy: int
    avg_index_occupancy: float
    index_bytes: int
    data_bytes: int
    data_occupancies: list[int] = field(repr=False, default_factory=list)
    index_occupancies: list[int] = field(repr=False, default_factory=list)
    #: Raw node populations keyed by level: level 0 lists every data
    #: page's record count (root included), level ``k`` lists every
    #: level-``k`` index node's entry count.  The monitor's audit oracle
    #: compares its incremental histograms against these.
    occupancies_by_level: dict[int, list[int]] = field(
        repr=False, default_factory=dict
    )
    #: Guard entries counted by the index level of the *node holding*
    #: them (``guards_by_level`` keys by the guard's own level instead).
    guards_by_node_level: dict[int, int] = field(default_factory=dict)

    @property
    def pages_total(self) -> int:
        """Data pages plus index nodes."""
        return self.data_pages + self.index_nodes

    @property
    def pages_by_level(self) -> dict[int, int]:
        """Node counts per level (level 0 = data pages)."""
        return {
            level: len(occ)
            for level, occ in sorted(self.occupancies_by_level.items())
        }


def collect(tree: "BVTree") -> TreeStats:
    """Walk the tree and compute its structural statistics."""
    policy = tree.policy
    data_occ: list[int] = []
    index_occ: list[int] = []
    index_by_level: dict[int, int] = {}
    guards_by_level: dict[int, int] = {}
    guards_by_node_level: dict[int, int] = {}
    occ_by_level: dict[int, list[int]] = {}
    index_bytes = 0

    root_entry = tree.root_entry()
    nonroot_data: list[int] = []
    nonroot_index: list[int] = []
    stack = [root_entry]
    while stack:
        entry = stack.pop()
        is_root = entry.page == tree.root_page
        if entry.level == 0:
            page: DataPage = tree.store.read(entry.page)
            data_occ.append(len(page))
            occ_by_level.setdefault(0, []).append(len(page))
            if not is_root:
                nonroot_data.append(len(page))
            continue
        node: IndexNode = tree.store.read(entry.page)
        index_by_level[node.index_level] = (
            index_by_level.get(node.index_level, 0) + 1
        )
        index_occ.append(len(node))
        occ_by_level.setdefault(node.index_level, []).append(len(node))
        if not is_root:
            nonroot_index.append(len(node))
        index_bytes += policy.index_node_bytes(node.index_level)
        for child in node.entries:
            if child.level < node.index_level - 1:
                guards_by_level[child.level] = (
                    guards_by_level.get(child.level, 0) + 1
                )
                guards_by_node_level[node.index_level] = (
                    guards_by_node_level.get(node.index_level, 0) + 1
                )
            stack.append(child)

    n_index = sum(index_by_level.values())
    return TreeStats(
        height=tree.height,
        n_points=tree.count,
        data_pages=len(data_occ),
        index_nodes=n_index,
        index_nodes_by_level=dict(sorted(index_by_level.items())),
        guards_by_level=dict(sorted(guards_by_level.items())),
        total_guards=sum(guards_by_level.values()),
        min_data_occupancy=min(nonroot_data or data_occ) if data_occ else 0,
        avg_data_occupancy=(
            sum(data_occ) / (len(data_occ) * policy.data_capacity)
            if data_occ
            else 0.0
        ),
        min_index_occupancy=min(nonroot_index or index_occ) if index_occ else 0,
        avg_index_occupancy=(
            sum(index_occ) / (len(index_occ) * policy.fanout)
            if index_occ
            else 0.0
        ),
        index_bytes=index_bytes,
        data_bytes=len(data_occ) * policy.page_bytes,
        data_occupancies=data_occ,
        index_occupancies=index_occ,
        occupancies_by_level={
            level: occ_by_level[level] for level in sorted(occ_by_level)
        },
        guards_by_node_level=dict(sorted(guards_by_node_level.items())),
    )
