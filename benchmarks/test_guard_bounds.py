"""Experiment E-GRD: the §2 worst-case guard model, measured.

"in the extreme case, a tree node at height x could contain (x-1)
entries of promoted guards for each unpromoted (level x) entry" — the
bound behind the §7.2 analysis.  Verified per node on promotion-heavy
workloads, along with the guard-set bound of §3 (at index level x a
search carries at most x-1 guards).
"""

import random

from repro.bench.harness import build_index
from repro.obs.report import format_table
from repro.workloads import nested_hotspot, promotion_storm


def guard_profile(tree):
    """Per-index-level (nodes, natives, guards, bound violations)."""
    profile: dict[int, list[int]] = {}
    stack = [tree.root_entry()]
    violations = 0
    while stack:
        entry = stack.pop()
        if entry.level == 0:
            continue
        node = tree.store.read(entry.page)
        row = profile.setdefault(node.index_level, [0, 0, 0])
        row[0] += 1
        row[1] += node.native_count()
        row[2] += node.guard_count()
        limit = node.native_count() * max(node.index_level - 1, 0)
        if node.guard_count() > limit:
            violations += 1
        stack.extend(node.entries)
    return profile, violations


def test_per_node_guard_bound(benchmark, space2):
    points = list(promotion_storm(12_000, 2, seed=26))
    points += list(nested_hotspot(6000, 2, seed=27))

    def build():
        return build_index("bv", space2, points, data_capacity=6, fanout=6)

    tree = benchmark.pedantic(build, rounds=1, iterations=1)
    profile, violations = guard_profile(tree)
    print()
    print(format_table(
        ["index level", "nodes", "natives", "guards", "(x-1)·natives bound"],
        [
            [level, n, natives, guards, natives * (level - 1)]
            for level, (n, natives, guards) in sorted(profile.items())
        ],
        title="E-GRD: guard counts vs the §2 worst-case model",
    ))
    assert violations == 0
    assert sum(g for _, _, g in profile.values()) > 0  # guards did occur
    tree.check(sample_points=50)


def test_guard_set_bound_during_search(benchmark, space2):
    points = list(promotion_storm(12_000, 2, seed=26))
    tree = build_index("bv", space2, points, data_capacity=6, fanout=6)
    rng = random.Random(28)
    probes = [(rng.random(), rng.random()) for _ in range(400)]

    def search_all():
        return max(tree.search(p).max_guard_set for p in probes)

    peak = benchmark(search_all)
    print(f"\npeak guard-set size over {len(probes)} searches: {peak} "
          f"(§3 bound: height-1 = {tree.height - 1})")
    assert peak <= max(tree.height - 1, 0)
