"""Unit tests for the balanced binary split ([LS89] argument)."""

import random

import pytest

from repro.errors import ResolutionExhaustedError, TreeInvariantError
from repro.core.split import choose_split, split_candidates
from repro.geometry.region import ROOT_KEY, RegionKey


def items_from_bits(*bits: str, path_bits: int = 8):
    """Items at full path length from literal bit strings."""
    return [(int(b, 2) << (path_bits - len(b)), path_bits) for b in bits]


def reference_candidates(base, items):
    """The heavy-half descent counting every step over all items."""

    def inside(block):
        return sum(
            1
            for path, bits in items
            if bits >= block.nbits and path >> (bits - block.nbits) == block.value
        )

    total = len(items)
    max_depth = max(bits for _, bits in items)
    out = []
    current, count = base, inside(base)
    while count >= 2 and current.nbits < max_depth:
        lower, upper = current.child(0), current.child(1)
        n_lower, n_upper = inside(lower), inside(upper)
        out += [(b, n) for b, n in ((lower, n_lower), (upper, n_upper)) if 0 < n < total]
        if n_lower == 0 and n_upper == 0:
            break
        current, count = (upper, n_upper) if n_upper > n_lower else (lower, n_lower)
    return out


class TestSplitCandidates:
    @pytest.mark.parametrize("seed", range(20))
    def test_subset_counting_matches_full_scans(self, seed):
        # Nested region keys of mixed lengths, as an index split sees them.
        rng = random.Random(seed)
        base = RegionKey(2, rng.randrange(4))
        n = rng.randint(3, 40)
        items = set()
        while len(items) < n:
            extra = rng.randint(0, 10)
            value = (base.value << extra) | rng.randrange(1 << extra)
            items.add((value, base.nbits + extra))
        items = list(items)
        rng.shuffle(items)
        expected = reference_candidates(base, items)
        got = split_candidates(base, items)
        assert got == expected

    def test_even_population_splits_at_first_halving(self):
        items = items_from_bits("0001", "0010", "1001", "1010")
        candidates = split_candidates(ROOT_KEY, items)
        blocks = {key.bit_string(): n for key, n in candidates}
        assert blocks["0"] == 2
        assert blocks["1"] == 2
        # Deeper fallback candidates may follow, but never unbalance the
        # choice: the chooser still picks the first halving.
        assert choose_split(ROOT_KEY, items).nbits == 1

    def test_skewed_population_descends(self):
        items = items_from_bits("0000", "0001", "0010", "0011", "0100", "1000")
        candidates = split_candidates(ROOT_KEY, items)
        # 5 of 6 are under '0': the descent must go deeper than one bit.
        assert any(key.nbits >= 2 for key, _ in candidates)
        for _, n in candidates:
            assert 0 < n < len(items)

    def test_counts_respect_base(self):
        items = items_from_bits("0100", "0101", "0110")
        with pytest.raises(TreeInvariantError):
            split_candidates(RegionKey.from_bits("00"), items)

    def test_single_item_rejected(self):
        with pytest.raises(TreeInvariantError):
            split_candidates(ROOT_KEY, items_from_bits("0101"))

    def test_duplicate_paths_exhaust_resolution(self):
        items = items_from_bits("0101", "0101", "0101")
        with pytest.raises(ResolutionExhaustedError):
            split_candidates(ROOT_KEY, items)

    def test_stop_count_within_thirds(self):
        # The greedy-stop candidate always lands in (N/3 - 1/2, 2N/3].
        for n_left in range(1, 12):
            bits = [f"0{i:07b}" for i in range(n_left)] + ["10000000"]
            items = items_from_bits(*bits)
            total = len(items)
            best = choose_split(ROOT_KEY, items)
            inside = sum(
                1
                for path, pb in items
                if best.contains_path(path, pb)
            )
            assert 1 <= inside <= total - 1


class TestChooseSplit:
    def test_balances_even_population(self):
        items = items_from_bits("0001", "0010", "1001", "1010")
        best = choose_split(ROOT_KEY, items)
        assert best.nbits == 1

    def test_respects_promotion_cost(self):
        items = items_from_bits("0000", "0001", "0010", "1000", "1001", "1010")
        # Without cost both halves tie; a native-promotion cost on block
        # '1' should steer the choice to block '0'.
        best = choose_split(
            ROOT_KEY,
            items,
            cost=lambda block: (1, 0) if block.bit_string() == "1" else (0, 0),
        )
        assert best.bit_string() == "0"

    def test_soft_cost_breaks_ties(self):
        items = items_from_bits("0000", "0001", "0010", "1000", "1001", "1010")
        best = choose_split(
            ROOT_KEY,
            items,
            cost=lambda block: (0, 3) if block.bit_string() == "0" else (0, 0),
        )
        assert best.bit_string() == "1"

    def test_guarantees_one_third_without_cost(self):
        # Deterministic sweep over clustered populations.
        for cluster in range(3, 30):
            bits = [f"00{i:06b}" for i in range(cluster)] + ["10000000"]
            items = items_from_bits(*bits)
            best = choose_split(ROOT_KEY, items)
            inside = sum(
                1 for path, pb in items if best.contains_path(path, pb)
            )
            outside = len(items) - inside
            assert min(inside, outside) >= max(1, len(items) // 3 - 1)

    def test_infeasible_outer_raises(self):
        items = items_from_bits("0000", "0001")
        with pytest.raises(TreeInvariantError):
            choose_split(ROOT_KEY, items, cost=lambda block: (5, 0))

    def test_base_offset_split(self):
        base = RegionKey.from_bits("11")
        items = [
            (0b11000000, 8),
            (0b11000001, 8),
            (0b11100000, 8),
            (0b11100001, 8),
        ]
        best = choose_split(base, items)
        assert base.is_prefix_of(best)
        assert best.nbits == 3
