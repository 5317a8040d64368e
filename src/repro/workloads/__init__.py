"""Workload generators for the empirical benchmarks.

The paper validates the BV-tree analytically and reports that "a
preliminary modified version of the BANG file, supported by a BV-tree,
confirms the anticipated performance characteristics"; no dataset
survives.  These generators supply the synthetic equivalents: the
structural claims (occupancy, path length, no cascades) are distributional
claims, so they are exercised across uniform, clustered, skewed,
correlated and adversarial point distributions (see DESIGN.md,
substitutions).
"""

from repro.workloads.generators import (
    clustered,
    diagonal,
    grid,
    skewed,
    uniform,
    zipf_grid,
)
from repro.workloads.adversarial import (
    nested_hotspot,
    promotion_storm,
    sequential_1d,
)
from repro.workloads.churn import churn, distinct_paths, grow_shrink

__all__ = [
    "churn",
    "clustered",
    "diagonal",
    "distinct_paths",
    "grid",
    "grow_shrink",
    "nested_hotspot",
    "promotion_storm",
    "sequential_1d",
    "skewed",
    "uniform",
    "zipf_grid",
]
