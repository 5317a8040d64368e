"""Wall-clock microbenchmark harness.

The page-access benchmarks under ``benchmarks/`` assert the paper's
machine-independent cost claims and gate CI.  This subpackage measures
what they deliberately ignore — how long the implementation actually
takes — and records it as a committed trajectory:

- :mod:`repro.perf.timer` — warmup/repeat measurement with the GC paused
  during samples, and the paired-round timer every overhead ratio uses;
- :mod:`repro.perf.registry` — :class:`Scale` presets, :class:`Case`
  definitions and the :func:`benchmark` factory registry, plus the
  :class:`Probe` contract: a probe is one module that registers a
  ``Probe`` (how to measure its snapshot block, draw it and gate on it);
- :mod:`repro.perf.scenarios` — the core suite (insert, bulk_load,
  exact_match, range, knn, buffered_get) over
  :mod:`repro.workloads` generators;
- the probes — :mod:`~repro.perf.obsprobe` (tracer overhead and
  guarantee health), :mod:`~repro.perf.durability` (WAL cost and crash
  recovery), :mod:`~repro.perf.columnar_probe` (layout lanes and
  oracle) and :mod:`~repro.perf.profileprobe` (cost-profiler overhead);
- :mod:`repro.perf.results` — JSON round-trip to ``BENCH_<suite>.json``
  at the repository root, plus snapshot comparison;
- :mod:`repro.perf.runner` — suite execution, derived metrics, the text
  report and the probes' baseline gate.

Served latency and throughput are not measured here: they belong to the
end-to-end benchmark (``BENCHMARK.json``, ``perfbench/``).  Run this
harness with ``python -m repro perf`` (see ``docs/PERFORMANCE.md``).
"""

from repro.perf.registry import (
    REGISTRY,
    SCALES,
    Case,
    Probe,
    Scale,
    benchmark,
    probes,
    resolve_scale,
)
from repro.perf.results import (
    BenchResult,
    SuiteResult,
    compare,
    default_path,
)
from repro.perf.runner import (
    derive_metrics,
    probe_failures,
    probe_regressions,
    render_text,
    run_suite,
)
from repro.perf.timer import Timing, measure
from repro.perf import scenarios as scenarios  # registers the core suite

# Registers the probes; this import order is their run order.
from repro.perf import obsprobe, durability, columnar_probe, profileprobe

__all__ = [
    "BenchResult",
    "Case",
    "Probe",
    "REGISTRY",
    "SCALES",
    "Scale",
    "SuiteResult",
    "Timing",
    "benchmark",
    "columnar_probe",
    "compare",
    "default_path",
    "derive_metrics",
    "durability",
    "measure",
    "obsprobe",
    "probe_failures",
    "probe_regressions",
    "probes",
    "profileprobe",
    "render_text",
    "resolve_scale",
    "run_suite",
    "scenarios",
]
