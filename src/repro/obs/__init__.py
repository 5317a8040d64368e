"""Observability: structured tracing, metrics and query EXPLAIN.

The paper's guarantees are *per-operation* claims — logarithmic node
touches, no cascade splits, bounded promotion work.  The aggregate
counters (:class:`~repro.core.stats.OpCounters`,
:class:`~repro.storage.stats.IOStats`) verify them in total; this
subpackage makes them observable operation by operation, the way the
dynamic-indexability literature argues about indexes — access traces,
not averages:

- :class:`~repro.obs.tracer.Tracer` + :class:`~repro.obs.events.TraceEvent`
  — a span-style event stream (descent steps, guard hits, splits,
  promotions, merges, page I/O) with zero overhead while disabled;
- :mod:`~repro.obs.sinks` — full-capture subscribers: an in-memory ring
  buffer and a JSONL file (every consumer below is a subscriber too,
  declaring the event kinds it takes);
- :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms, derivable from the event stream via
  :class:`~repro.obs.metrics.MetricsSink`; the perf harness snapshots a
  registry into ``BENCH_<suite>.json``;
- :mod:`~repro.obs.explain` — ``BVTree.explain(...)`` reports (visited
  entries per level, guards consulted, prune cut-offs, pages touched);
- :class:`~repro.obs.monitor.GuaranteeMonitor` — live, O(1)-per-event
  structural gauges (per-level occupancy histograms, guards, height)
  fed by a structural tracer subscription, audited exactly against the
  full-sweep :func:`~repro.core.stats.collect`;
- :mod:`~repro.obs.health` + :mod:`~repro.obs.report` — the paper's
  three guarantees scored into :class:`~repro.obs.health.HealthFinding`
  verdicts, and the ``repro doctor`` engine;
- :class:`~repro.obs.metrics.TimeSeriesSink` — the one registry sampler:
  columnar samples every N operations (a whole workload's health
  trajectory in one bounded JSON artifact, for ``repro doctor`` and
  ``repro top`` alike);
- :class:`~repro.obs.profile.OpProfiler` — per-operation-kind cost
  profiles (latency histograms, page-access deltas, cascade depth)
  collected from update-path events plus a direct read hook, plus :class:`~repro.obs.profile.SlowOpLog`
  — structured JSONL captures of threshold-exceeding operations with
  automatic EXPLAIN attachments for queries;
- :func:`~repro.obs.metrics.to_prometheus` /
  :func:`~repro.obs.metrics.lint_prometheus` — Prometheus text-format
  exposition of a whole registry, and an in-tree format linter;
- :mod:`~repro.obs.top` — the ``repro top`` engine: a refreshing
  terminal dashboard (ops/sec, p50/p99 per kind, buffer hit rate, WAL
  fsyncs, live guarantee verdicts) over any operation stream.

CLI: ``repro explain``, ``repro trace``, ``repro doctor`` and
``repro top``.  Full schema and usage: ``docs/OBSERVABILITY.md``.

This package sits *below* :mod:`repro.core` and :mod:`repro.storage` in
the dependency order (both emit through it); it imports neither, which
is what lets a single tracer be shared across the tree and its store.
"""

from repro.obs.events import EVENT_KINDS, TraceEvent
from repro.obs.explain import ExplainReport, explain_knn, explain_point, explain_range
from repro.obs.health import (
    HealthFinding,
    HealthReport,
    HealthThresholds,
    evaluate,
    height_bound,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
    TimeSeriesSink,
    lint_prometheus,
    to_prometheus,
)
from repro.obs.monitor import AuditReport, GuaranteeMonitor
from repro.obs.profile import KindProfile, OpProfiler, SlowOpLog
from repro.obs.report import DoctorResult, render_doctor_text, run_doctor
from repro.obs.sinks import JsonlSink, RingSink, TraceSink, read_jsonl
from repro.obs.top import TopResult, render_top_frame, run_top
from repro.obs.tracer import Tracer

__all__ = [
    "AuditReport",
    "Counter",
    "DoctorResult",
    "EVENT_KINDS",
    "ExplainReport",
    "Gauge",
    "GuaranteeMonitor",
    "HealthFinding",
    "HealthReport",
    "HealthThresholds",
    "Histogram",
    "JsonlSink",
    "KindProfile",
    "MetricsRegistry",
    "MetricsSink",
    "OpProfiler",
    "RingSink",
    "SlowOpLog",
    "TimeSeriesSink",
    "TopResult",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "evaluate",
    "explain_knn",
    "explain_point",
    "explain_range",
    "height_bound",
    "lint_prometheus",
    "read_jsonl",
    "render_doctor_text",
    "render_top_frame",
    "run_doctor",
    "run_top",
    "to_prometheus",
]
