"""Run a benchmark suite and render its results.

``run_suite`` executes every registered case (or a selected subset) at a
given :class:`~repro.perf.registry.Scale`, then computes the cross-case
*derived* metrics the PR's acceptance criteria are stated in:

- ``bulk_load_speedup`` — incremental-insert best over bulk-load best.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Any, Callable

from repro.errors import ReproError
from repro.obs.report import format_table
from repro.perf import scenarios
from repro.perf.registry import REGISTRY, Scale, probes
from repro.perf.results import BenchResult, SuiteResult, compare
from repro.perf.timer import measure

__all__ = [
    "derive_metrics",
    "probe_failures",
    "probe_regressions",
    "render_text",
    "run_suite",
]


def run_suite(
    scale: Scale,
    suite: str = "core",
    only: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> SuiteResult:
    """Execute the registered cases and assemble a :class:`SuiteResult`.

    ``only`` restricts the run to the named cases (suite-level derived
    metrics that need absent cases are simply omitted); ``progress`` is
    called with each case name and each probe label as it starts, for
    CLI feedback.  Every registered probe runs after the timed cases
    finish (never concurrently — a probe must not perturb the timings).
    """
    if only:
        unknown = sorted(set(only) - set(REGISTRY))
        if unknown:
            raise ReproError(
                f"unknown benchmark case(s) {unknown}; "
                f"registered: {sorted(REGISTRY)}"
            )
    context = scenarios.build_context(scale)
    results: list[BenchResult] = []
    for name, factory in REGISTRY.items():
        if only and name not in only:
            continue
        if progress is not None:
            progress(name)
        case = factory(scale, context)
        timing = measure(
            case.run,
            setup=case.setup,
            repeats=scale.repeats,
            warmup=scale.warmup,
        )
        counters = (
            case.counters(timing.last_result)
            if case.counters is not None
            else {}
        )
        results.append(
            BenchResult(
                name=case.name,
                description=case.description,
                ops=case.ops,
                repeats=scale.repeats,
                warmup=scale.warmup,
                samples=timing.samples,
                counters=counters,
            )
        )
    blocks: dict[str, dict[str, Any]] = {}
    for probe in probes():
        if progress is not None:
            progress(probe.label)
        blocks[probe.name] = probe.run(scale)
    created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return SuiteResult(
        suite=suite,
        created=created,
        scale=scale.to_dict(),
        results=results,
        derived=derive_metrics(results),
        probes=blocks,
    )


def derive_metrics(results: list[BenchResult]) -> dict[str, Any]:
    """Cross-case figures (see the module docstring)."""
    by_name = {result.name: result for result in results}
    derived: dict[str, Any] = {}
    insert = by_name.get("insert")
    bulk = by_name.get("bulk_load")
    if insert is not None and bulk is not None:
        derived["bulk_load_speedup"] = insert.best / bulk.best
    return derived


def render_text(
    result: SuiteResult, baseline: SuiteResult | None = None
) -> str:
    """A human-readable report (the CLI's default output)."""
    rows = [
        [
            r.name,
            r.ops,
            f"{r.best * 1e3:.2f}",
            f"{r.mean * 1e3:.2f}",
            f"{r.per_op_us:.2f}",
            " ".join(f"{k}={v}" for k, v in sorted(r.counters.items())),
        ]
        for r in result.results
    ]
    scale = result.scale
    blocks = [
        format_table(
            ["case", "ops", "best ms", "mean ms", "us/op", "counters"],
            rows,
            title=(
                f"suite {result.suite!r} at scale {scale.get('name')!r} "
                f"(n={scale.get('n_points')}, dims={scale.get('dims')}, "
                f"P={scale.get('data_capacity')}, F={scale.get('fanout')}, "
                f"repeats={scale.get('repeats')})"
            ),
        )
    ]
    if result.derived:
        derived_rows = [
            [key, _fmt_derived(value)]
            for key, value in sorted(result.derived.items())
        ]
        blocks.append(format_table(["derived metric", "value"], derived_rows))
    for probe in probes():
        block = result.probes.get(probe.name)
        if block:
            blocks.append(format_table(
                [probe.name, "value"], probe.rows(block), probe.title(block)
            ))
    if baseline is not None:
        cmp_rows = []
        for row in compare(baseline, result):
            cmp_rows.append([
                row["name"],
                _fmt_ms(row["baseline_best"]),
                _fmt_ms(row["current_best"]),
                (
                    f"{row['speedup']:.2f}x"
                    if row["speedup"] is not None
                    else "-"
                ),
            ])
        blocks.append(format_table(
            ["case", "baseline ms", "current ms", "speedup"],
            cmp_rows,
            title=f"vs baseline from {baseline.created}",
        ))
        regressions = probe_regressions(baseline, result)
        if regressions:
            blocks.append(
                "guarantee REGRESSIONS vs baseline:\n"
                + "\n".join(f"  {line}" for line in regressions)
            )
        elif set(baseline.probes) & set(result.probes):
            blocks.append("guarantees: no regressions vs baseline")
    return "\n\n".join(blocks)


def probe_regressions(
    baseline: SuiteResult, current: SuiteResult
) -> list[str]:
    """What got *worse* since the baseline snapshot, one line each.

    Each probe compares its own block (:attr:`Probe.regressions`); a
    block missing on either side (an older snapshot) compares as
    no-regression — blocks are additive.
    """
    out: list[str] = []
    for probe in probes():
        base = baseline.probes.get(probe.name)
        cur = current.probes.get(probe.name)
        if base and cur:
            out.extend(probe.regressions(base, cur))
    return out


def probe_failures(result: SuiteResult) -> list[str]:
    """Findings that fail the run itself (:attr:`Probe.failures`)."""
    return [
        line
        for probe in probes()
        if result.probes.get(probe.name)
        for line in probe.failures(result.probes[probe.name])
    ]


def _fmt_derived(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _fmt_ms(seconds: Any) -> str:
    return f"{seconds * 1e3:.2f}" if seconds is not None else "-"
