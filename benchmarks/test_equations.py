"""Experiment T7-A: equations (1)–(9) — recursions vs closed forms.

Checks, for a sweep of fan-outs, that the exact recursive definitions of
§7.1/§7.2 equal their closed forms, and that the index:data ratio is
~1/F in the best *and* the worst case — the paper's conclusion from
equations (3) and (9).
"""

import pytest

from repro.analysis import worstcase as wc
from repro.obs.report import format_table

FANOUTS = [24, 60, 120, 400]
HEIGHTS = range(1, 9)


def full_sweep():
    rows = []
    for fanout in FANOUTS:
        for h in HEIGHTS:
            rows.append(
                (
                    fanout,
                    h,
                    wc.best_case_data_nodes(fanout, h),
                    wc.worst_case_data_nodes(fanout, h),
                    wc.worst_case_data_nodes_recursive(fanout, h),
                    wc.best_case_ratio(fanout, h),
                    wc.worst_case_ratio(fanout, h),
                )
            )
    return rows


def test_recursions_match_closed_forms(benchmark):
    rows = benchmark(full_sweep)
    for fanout, h, best, worst, worst_rec, r_best, r_worst in rows:
        assert worst_rec == pytest.approx(worst, rel=1e-12)
        assert best >= worst  # promotion only ever costs capacity


def test_ratio_constant_across_configurations(benchmark):
    rows = benchmark(full_sweep)
    print()
    sample = [r for r in rows if r[1] == 5]
    print(format_table(
        ["F", "h", "ti/td best", "ti/td worst", "1/F"],
        [[f, h, rb, rw, 1 / f] for f, h, _, _, _, rb, rw in sample],
        title="Equations (3)/(9): index:data ratio ≈ 1/F in both cases",
    ))
    for fanout, h, _, _, _, r_best, r_worst in rows:
        if h >= 2:
            assert r_best == pytest.approx(1 / fanout, rel=0.15)
            assert r_worst == pytest.approx(1 / fanout, rel=0.15)


def test_integer_constraint_f60_exact(benchmark):
    # "the smallest fan-out ratio which will yield a tree with the
    # largest possible data capacity for a tree of height 5 in the worst
    # case is 60."
    def exactness():
        return [
            (
                fanout,
                wc.worst_case_data_nodes_integer(fanout, 5),
                wc.worst_case_data_nodes(fanout, 5),
            )
            for fanout in (24, 48, 60, 120)
        ]

    rows = benchmark(exactness)
    by_fanout = {f: (integer, closed) for f, integer, closed in rows}
    assert by_fanout[60][0] == by_fanout[60][1]
    assert by_fanout[120][0] == by_fanout[120][1]
    assert by_fanout[24][0] < by_fanout[24][1]
    assert by_fanout[48][0] < by_fanout[48][1]
