"""The balanced binary split — the [LS89] argument the paper builds on.

Both data pages and index nodes split by descending the binary partition
sequence from the region's own block, always into the heavier half, until
the inner count first drops to at most two thirds of the population.  The
halving argument guarantees the stopping count is also above one third, so
**both sides of the split hold at least one third of the population** — the
source of the BV-tree's 1/3 occupancy guarantee.

The items being balanced are bit paths: full-resolution point paths when a
data page splits, native-entry region keys when an index node splits.  A
candidate inner block never coincides with an existing *hole* of the region
(an enclosed same-level region), because holes contain none of the items —
holey-region semantics keeps their population in other nodes — and the
descent only moves through blocks with a strictly positive count.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ResolutionExhaustedError, TreeInvariantError
from repro.geometry.region import RegionKey

#: An item is a bit path with an explicit length: point paths are
#: ``(path, space.path_bits)``; region keys are ``(key.value, key.nbits)``.
PathItem = tuple[int, int]


def _count_inside(block: RegionKey, items: Sequence[PathItem]) -> int:
    """Number of items whose path lies inside (or equals) the block."""
    nbits, value = block.nbits, block.value
    return sum(
        1
        for path, path_bits in items
        if path_bits >= nbits and (path >> (path_bits - nbits)) == value
    )


def split_candidates(
    base: RegionKey, items: Sequence[PathItem]
) -> list[tuple[RegionKey, int]]:
    """Candidate inner blocks along the greedy heavy-half descent.

    Returns ``(block, inside_count)`` pairs with ``0 < inside_count < N``,
    deepest candidates last.  The list always contains at least one
    candidate with ``N/3 <= inside_count <= 2N/3`` rounding slack aside —
    see module docstring — unless the items cannot be separated within
    their bit resolution, in which case :class:`ResolutionExhaustedError`
    is raised.
    """
    total = len(items)
    if total < 2:
        raise TreeInvariantError(f"cannot split {total} item(s)")
    max_depth = max(path_bits for _, path_bits in items)
    candidates: list[tuple[RegionKey, int]] = []
    current = base
    count = _count_inside(base, items)
    if count != total:
        raise TreeInvariantError(
            f"{total - count} item(s) lie outside the base block {base!r}"
        )
    # Each halving step counts only the items still inside the current
    # block: the heavier child's items are the next step's population.
    inside = items
    # Descend past the 2N/3 balance point down to pairs: the balanced
    # candidate is always collected on the way, and the deeper (less
    # balanced) candidates give callers with promotion costs a feasible
    # fallback when every balanced boundary would promote the whole
    # outer side (nested key chains).
    while count >= 2:
        if current.nbits >= max_depth:
            if count * 3 > 2 * total:
                raise ResolutionExhaustedError(
                    f"{count} items share the {current.nbits}-bit block "
                    f"{current!r}; cannot split within resolution"
                )
            break
        depth = current.nbits + 1
        lower_items: list[PathItem] = []
        upper_items: list[PathItem] = []
        for item in inside:
            path, path_bits = item
            if path_bits >= depth:
                # Inside the current block, so the bit below its key
                # picks the child.
                if (path >> (path_bits - depth)) & 1:
                    upper_items.append(item)
                else:
                    lower_items.append(item)
        lower, upper = current.child(0), current.child(1)
        n_lower = len(lower_items)
        n_upper = len(upper_items)
        for block, n in ((lower, n_lower), (upper, n_upper)):
            if 0 < n < total:
                candidates.append((block, n))
        if n_lower == 0 and n_upper == 0:
            # All remaining items sit exactly on the current block's key.
            if count * 3 > 2 * total:
                raise ResolutionExhaustedError(
                    f"{count} items have paths equal to block {current!r}; "
                    f"cannot split within resolution"
                )
            break
        if n_upper > n_lower:
            current, count, inside = upper, n_upper, upper_items
        else:
            current, count, inside = lower, n_lower, lower_items
    if not candidates:
        raise TreeInvariantError(
            f"no split candidate found for {total} items under {base!r}"
        )
    return candidates


def choose_split(
    base: RegionKey,
    items: Sequence[PathItem],
    cost: Callable[[RegionKey], tuple[int, int]] | None = None,
) -> RegionKey:
    """Pick the inner block that best balances the split.

    ``cost(block)`` returns ``(native_promotions, guard_promotions)`` for
    index splits (paper §2): the one native directly enclosing the block
    that would be promoted, and the guards promoted with it.  Native
    promotions reduce the outer side's population (and an outer side left
    without items is infeasible); guard promotions only lower the score,
    so a split that promotes less is preferred at equal balance.  Ties
    prefer the shallower block (the earliest partition of the binary
    sequence), which keeps region keys short.

    The greedy-stop candidate of :func:`split_candidates` is always
    feasible for populations of five or more, so this never raises for
    capacities the policy allows.
    """
    total = len(items)
    best_block: RegionKey | None = None
    best_score: tuple[int, int, int] | None = None
    for block, inside in split_candidates(base, items):
        hard, soft = cost(block) if cost else (0, 0)
        outer = total - inside - hard
        if outer < 1:
            continue
        score = (min(inside, outer), -soft, -block.nbits)
        if best_score is None or score > best_score:
            best_block, best_score = block, score
    if best_block is None:
        raise TreeInvariantError(
            f"all split candidates for {total} items under {base!r} would "
            f"empty the outer side"
        )
    return best_block
