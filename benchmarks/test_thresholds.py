"""Experiment T7-C: §7.2/§7.3 file-size thresholds, 1 KB data pages.

"For a BV-tree with uniform index page size, a fan-out ratio of 24 and a
data page size of 1 KByte, the height of the index tree will increase by
not more than two levels in the worst case ... up to a data set size of
order 100 MBytes.  For a fan-out ratio of 120, this size increases to
order 25 TBytes."
"""

from repro.analysis import capacity
from repro.obs.report import format_table

SIZES = [1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 25e12, 1e14]


def penalty_table():
    return [
        (
            f"{size:.0e}",
            capacity.height_penalty_for_file(24, size),
            capacity.height_penalty_for_file(120, size),
        )
        for size in SIZES
    ]


def test_penalty_by_file_size(benchmark):
    rows = benchmark(penalty_table)
    print()
    print(format_table(
        ["file size (bytes)", "extra levels F=24", "extra levels F=120"],
        rows,
        title="worst-case height penalty, 1 KB data pages",
    ))
    by_size = {row[0]: row for row in rows}
    assert by_size["1e+08"][1] <= 2    # F=24: ≤2 up to ~100 MB
    assert capacity.height_penalty_for_file(120, 25e12) <= 2
    assert capacity.height_penalty_for_file(120, 200e9) <= 1


def test_exact_thresholds(benchmark):
    def thresholds():
        return {
            ("F=24", 2): capacity.max_file_size_with_penalty(24, 2),
            ("F=120", 1): capacity.max_file_size_with_penalty(120, 1),
            ("F=120", 2): capacity.max_file_size_with_penalty(120, 2),
        }

    result = benchmark(thresholds)
    print()
    print(format_table(
        ["fan-out", "penalty bound", "exact threshold"],
        [
            [k[0], k[1], f"{v / 1e9:,.1f} GB"]
            for k, v in result.items()
        ],
        title="exact thresholds (the paper's figures are conservative)",
    ))
    # The paper's quoted sizes must lie inside the exact thresholds.
    assert result[("F=24", 2)] >= 100e6
    assert result[("F=120", 1)] >= 200e9
    assert result[("F=120", 2)] >= 25e12
