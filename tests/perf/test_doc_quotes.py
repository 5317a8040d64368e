"""Speedups quoted in the prose must agree with the committed snapshot.

Each entry maps one quoted figure (a regex whose group is the number) to
the ``BENCH_core.json`` key it quotes; a quote more than 10% away from
the committed value fails, so refreshing the snapshot without the docs
(or the docs without the snapshot) is caught.
"""

import re

import pytest

from repro.perf import default_path
from repro.perf.results import SuiteResult

EXACT = "columnar.speedups.exact_match"
RANGE = "columnar.speedups.range"
KNN = "columnar.speedups.knn"

PERF, README, CHANGELOG = "docs/PERFORMANCE.md", "README.md", "CHANGELOG.md"
QUOTES = [
    (PERF, r"`columnar\.speedups\.exact_match` ≈ \*\*([\d.]+)×", EXACT),
    (PERF, r"exact match ≈ ([\d.]+)× faster than", EXACT),
    (PERF, r"range scans ≈ ([\d.]+)×", RANGE),
    (PERF, r"range scans ≈ [\d.]+×, k-NN ≈ ([\d.]+)×", KNN),
    (README, r"~([\d.]+)x faster exact match", EXACT),
    (README, r"exact match / ~([\d.]+)x range", RANGE),
    (CHANGELOG, r"exact match ≈ ([\d.]+)×, range", EXACT),
    (CHANGELOG, r"exact match ≈ [\d.]+×, range ≈ ([\d.]+)×", RANGE),
    (CHANGELOG, r"range ≈ [\d.]+×, k-NN ≈ ([\d.]+)×", KNN),
]


@pytest.fixture(scope="module")
def snapshot():
    return SuiteResult.load(default_path("core")).to_dict()


@pytest.mark.parametrize(
    "doc, pattern, key",
    QUOTES,
    ids=[f"{i}-{doc}:{key}" for i, (doc, _, key) in enumerate(QUOTES)],
)
def test_quote_matches_committed_snapshot(snapshot, doc, pattern, key):
    text = (default_path("core").parent / doc).read_text(encoding="utf-8")
    quotes = re.findall(pattern, text)
    assert len(quotes) == 1, f"{doc}: expected one quote of {key}"
    value = snapshot
    for part in key.split("."):
        value = value[part]
    assert float(quotes[0]) == pytest.approx(value, rel=0.10), (
        f"{doc} quotes {key} as {quotes[0]}x; BENCH_core.json has "
        f"{value:.2f}x"
    )
