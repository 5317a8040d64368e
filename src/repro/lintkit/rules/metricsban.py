"""R11 — no direct ``MetricsRegistry`` mutation from ``repro/core``.

Metrics are *derived* observability: a :class:`~repro.obs.MetricsSink`
(or a :class:`~repro.obs.GuaranteeMonitor` publishing into a registry)
folds the core's trace events into counters, gauges and histograms.  If
core code imports :mod:`repro.obs.metrics` and pokes instruments
directly, two things break at once: the trace stream and the registry
can disagree (the audit in ``repro doctor`` assumes events are the
single source of truth), and the core pays instrument bookkeeping on hot
paths even when nothing subscribed.  The tracer's empty subscriber
list is the default precisely so core code never needs a metrics
handle: a ``MetricsSink`` subscribes from outside when wanted.

The rule flags, inside ``repro/core`` only: any import of
``repro.obs.metrics`` (module or names such as ``MetricsRegistry``,
``Counter``, ``Gauge``, ``Histogram``, ``TimeSeriesSink``) and any call
of the mutating instrument methods (``inc``/``set``/``observe``) or
registry factories (``counter``/``gauge``/``histogram``) on an object.
Event emission through ``tree.tracer`` and the plain-int
``OpCounters`` fields remain the sanctioned accounting paths.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.context import FileContext, in_subpackage
from repro.lintkit.findings import Finding
from repro.lintkit.registry import Rule, register

#: Names exported by repro.obs.metrics whose import into core is banned.
_METRIC_NAMES = frozenset(
    {
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "TimeSeriesSink",
    }
)
#: Mutating instrument methods (Counter.inc, Gauge.set, Histogram.observe).
_MUTATORS = frozenset({"inc", "set", "observe"})
#: Registry factory methods that create-or-return instruments.
_FACTORIES = frozenset({"counter", "gauge", "histogram"})


@register
class CoreMetricsBan(Rule):
    """Flag metrics imports and instrument mutation in ``repro/core``."""

    code = "R11"
    name = "direct metrics mutation in core code"
    fix_hint = (
        "emit a TraceEvent and let a MetricsSink/GuaranteeMonitor derive "
        "the metric; core must not hold or mutate registry instruments"
    )

    def applies_to(self, posix: str) -> bool:
        return in_subpackage(posix, "core")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Attribute names bound from a banned import in this module; calls
        # to <name>.inc/.set/.observe etc. are only flagged when the base
        # name could plausibly be a metrics object (imported here), so
        # ``node.set(...)`` on an ast or dict-like object stays clean.
        tainted: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro.obs"):
                        yield self.make(
                            ctx,
                            node,
                            f"core code imports {alias.name}; metrics are "
                            f"derived from trace events, not pushed by core",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if not module.startswith("repro.obs"):
                    continue
                for alias in node.names:
                    if (
                        module.startswith("repro.obs.metrics")
                        or alias.name in _METRIC_NAMES
                    ):
                        tainted.add(alias.asname or alias.name)
                        yield self.make(
                            ctx,
                            node,
                            f"core code imports {alias.name} from "
                            f"{module}; instrument handles belong to "
                            f"sinks, not to core",
                        )
        if not tainted:
            return
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in (_MUTATORS | _FACTORIES)
            ):
                continue
            base = node.func.value
            # <Tainted>(...).inc(...) or registry-from-tainted chains are
            # caught by the import finding above; here we flag direct
            # mutation through a name bound to a banned class/instance.
            if isinstance(base, ast.Name) and base.id in tainted:
                yield self.make(
                    ctx,
                    node,
                    f"core code mutates a metrics instrument "
                    f"({base.id}.{node.func.attr}())",
                )
