"""Experiment F7-1: Figure 7-1 — best vs worst case, uniform pages, F=24.

Regenerates the per-height series ``log_F td(h)`` for the best case and
the worst case, and checks the paper's readings of the chart: a
best-case height-3 tree grows to 4 in the worst case, height 4 to 6,
height 5 to 9–10 (the binomial closed form gives 9; the paper reads 10
off the log-scale chart — see EXPERIMENTS.md).
"""

import math

from repro.analysis import figures
from repro.obs.report import format_table

FANOUT = 24


def series():
    return figures.figure_series(FANOUT)


def test_figure_7_1_series(benchmark):
    rows = benchmark(series)
    print()
    print(format_table(
        ["h", "log_F td best", "log_F td worst", "gap", "log_F h!"],
        [
            [r.height, r.best_log_f, r.worst_log_f, r.gap, r.gap_predicted]
            for r in rows
        ],
        title=f"Figure 7-1 (F = {FANOUT}, uniform index pages)",
    ))
    # Shape: the gap is log_F(h!) (within the F >> h approximation) and
    # widens monotonically with height.
    for row in rows:
        assert row.gap == (
            __import__("pytest").approx(row.gap_predicted, rel=0.2, abs=1e-9)
        )
    gaps = [r.gap for r in rows]
    assert gaps == sorted(gaps)


def test_figure_7_1_height_growth(benchmark):
    table = benchmark(figures.height_growth_table, FANOUT, range(1, 6))
    growth = dict(table)
    print()
    print(format_table(
        ["best-case height", "worst-case height"],
        sorted(growth.items()),
        title="Figure 7-1 reading: height needed in the worst case",
    ))
    assert growth[3] == 4   # paper: "3 ... grow to height 4"
    assert growth[4] == 6   # paper: "4 ... grow to height 6"
    assert growth[5] in (9, 10)  # paper reads 10; closed form gives 9


def test_figure_7_1_capacity_loss(benchmark):
    losses = benchmark(
        lambda: [
            (h, math.factorial(h))
            for h in range(1, 10)
        ]
    )
    from repro.analysis import worstcase

    for h, factorial in losses:
        measured = worstcase.capacity_loss_factor(FANOUT, h)
        # For F = 24 and h up to 9 the loss tracks h! within a factor ~4
        # (the approximation degrades as h approaches F).
        assert measured <= factorial
        assert measured >= factorial / 6
