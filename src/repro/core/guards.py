"""Guard sets: the state carried down the tree by every descent (paper §3).

A guard set holds, per partition level, the best-matching guard entry seen
so far on the path from the root.  Two guards of the same level merge by
keeping the better (longer-prefix) match; the level-``x`` member is consumed
when the descent reaches index level ``x + 1``, where it competes with the
unpromoted entries of its original level — the "notional backtrack" of §3.1.

Each member remembers the page of the node it is physically stored in (its
*owner*): update operations need to know where an entry lives so that a
split of the page it points to can be propagated to the right node.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import TreeInvariantError
from repro.core.entry import Entry

#: A guard-set member: the entry plus the page id of the node storing it.
GuardRef = tuple[Entry, int]


class GuardSet:
    """Best-matching guard per partition level, carried during a descent."""

    __slots__ = ("_by_level",)

    def __init__(self) -> None:
        self._by_level: dict[int, GuardRef] = {}

    @classmethod
    def adopt(cls, by_level: dict[int, GuardRef]) -> "GuardSet":
        """Wrap an already-built level map without copying it.

        The fused columnar descent (:func:`~repro.core.columnar
        .locate_columnar`) maintains the map directly and hands it over
        here; the caller must not keep its own reference.
        """
        guards = cls()
        guards._by_level = by_level
        return guards

    def level_map(self) -> dict[int, GuardRef]:
        """The level map itself, not a copy — the inverse of :meth:`adopt`."""
        return self._by_level

    def merge(self, entry: Entry, owner_page: int) -> None:
        """Add a matching guard, keeping the longer prefix on conflict.

        Two distinct regions of the same level that both contain the search
        path are necessarily nested, so "longer key" and "better match"
        coincide (paper §3: "two guards of the same level are merged by
        discarding the poorer match").
        """
        current = self._by_level.get(entry.level)
        if current is None or entry.key.nbits > current[0].key.nbits:
            self._by_level[entry.level] = (entry, owner_page)
        elif (
            entry.key.nbits == current[0].key.nbits
            and entry.key != current[0].key
        ):
            raise TreeInvariantError(
                f"two disjoint level-{entry.level} guards match one path: "
                f"{current[0]!r} vs {entry!r}"
            )

    def consume(self, level: int) -> GuardRef | None:
        """Remove and return the guard of this level, if present.

        Called when the descent reaches index level ``level + 1``, the point
        where the guard has returned to its original position in the
        partition hierarchy.
        """
        return self._by_level.pop(level, None)

    def peek(self, level: int) -> GuardRef | None:
        """The guard of this level without consuming it."""
        return self._by_level.get(level)

    def levels(self) -> Iterator[int]:
        """The partition levels currently represented."""
        return iter(sorted(self._by_level))

    def refs(self) -> Iterator[GuardRef]:
        """Iterate the (entry, owner page) members (unspecified order)."""
        return iter(self._by_level.values())

    def copy(self) -> "GuardSet":
        """An independent copy (descents may fork, e.g. during deletion)."""
        clone = GuardSet()
        clone._by_level.update(self._by_level)
        return clone

    def __len__(self) -> int:
        return len(self._by_level)

    def __contains__(self, level: int) -> bool:
        return level in self._by_level

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{level}: {ref[0].key.bit_string() or 'ε'}"
            for level, ref in sorted(self._by_level.items())
        )
        return f"GuardSet({{{inner}}})"
