"""Experiment F7-2: Figure 7-2 — best vs worst case, uniform pages, F=120.

The paper's readings: a best-case height-4 tree grows to 5 in the worst
case, a height-6 tree to "between 8 and 9"; with 1 KB data pages the
latter corresponds to a ~3 PB file, and up to 200 GB the index grows by
at most one level.
"""

import pytest

from repro.analysis import capacity, figures
from repro.obs.report import format_table

FANOUT = 120


def test_figure_7_2_series(benchmark):
    rows = benchmark(figures.figure_series, FANOUT)
    print()
    print(format_table(
        ["h", "log_F td best", "log_F td worst", "gap", "log_F h!"],
        [
            [r.height, r.best_log_f, r.worst_log_f, r.gap, r.gap_predicted]
            for r in rows
        ],
        title=f"Figure 7-2 (F = {FANOUT}, uniform index pages)",
    ))
    # The higher fan-out narrows every gap relative to Figure 7-1.
    f24 = {r.height: r.gap for r in figures.figure_series(24)}
    for row in rows:
        if row.height >= 2:
            assert row.gap < f24[row.height]


def test_figure_7_2_height_growth(benchmark):
    growth = dict(benchmark(figures.height_growth_table, FANOUT, range(1, 7)))
    print()
    print(format_table(
        ["best-case height", "worst-case height"],
        sorted(growth.items()),
        title="Figure 7-2 reading: height needed in the worst case",
    ))
    assert growth[4] == 5        # paper: "a tree of height 4 need only grow to 5"
    assert growth[6] in (8, 9)   # paper: "a tree of height 6 ... 8 and 9"


def test_figure_7_2_file_size_annotations(benchmark):
    petabytes = benchmark(capacity.worst_case_file_size_at_height, FANOUT, 9)
    # "If the data pages are 1 Kbyte each, the latter corresponds to a
    # 3 Petabyte file" — the h=8..9 worst-case capacity brackets 3 PB.
    assert capacity.worst_case_file_size_at_height(FANOUT, 8) <= 3e15
    assert petabytes >= 3e15
    # "For more modest-sized files — up to 200 Gigabytes — the index tree
    # only has to grow by a maximum of 1 level."
    assert capacity.height_penalty_for_file(FANOUT, 200e9) <= 1
    print(f"\nworst-case h=9 capacity: {petabytes / 1e15:.1f} PB; "
          f"penalty at 200 GB: "
          f"{capacity.height_penalty_for_file(FANOUT, 200e9)} level(s)")


@pytest.mark.parametrize("heights", [range(1, 10)])
def test_render_both_figures(benchmark, heights):
    text = benchmark(
        lambda: figures.render_figure(figures.figure_series(FANOUT, heights), FANOUT)
    )
    print("\n" + text)
    assert "F = 120" in text
