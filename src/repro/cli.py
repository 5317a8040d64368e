"""Command-line interface: run the paper's analyses and demos.

::

    python -m repro figures --fanout 24        # Figure 7-1
    python -m repro thresholds                 # §7.2/§7.3 file-size claims
    python -m repro demo --workload clustered  # build a BV-tree, show stats
    python -m repro compare --n 10000          # BV vs the baselines
    python -m repro perf --scale smoke         # wall-clock benchmark suite
    python -m repro lint src/repro tests       # domain-aware static analysis
    python -m repro explain --point 0.3 0.7    # what would this query do?
    python -m repro trace --out trace.jsonl    # record a traced workload
    python -m repro doctor --workload storm    # score the paper guarantees
    python -m repro top --once                 # live cost/health dashboard
    python -m repro recover state/             # replay a WAL, rebuild the tree
    python -m repro serve --n 10000            # HTTP/JSON serving layer
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.analysis import capacity, figures
from repro.core.columnar import DEFAULT_LAYOUT, LAYOUTS
from repro.errors import ReproError
from repro.geometry.space import DataSpace
from repro.obs.report import format_table
from repro.workloads import (
    churn,
    clustered,
    diagonal,
    distinct_paths,
    nested_hotspot,
    promotion_storm,
    skewed,
    uniform,
    zipf_grid,
)

WORKLOADS = {
    "uniform": uniform,
    "clustered": clustered,
    "skewed": skewed,
    "diagonal": diagonal,
    "zipf": zipf_grid,
    "hotspot": nested_hotspot,
    "storm": promotion_storm,
}

#: ``compare --structures`` choices: the names of
#: :data:`repro.bench.harness.INDEX_KINDS`, spelled out so that building
#: the parser does not import the baselines (a test keeps them equal).
STRUCTURES = ["bang", "bv", "kdb", "lsd", "zorder"]


def _cmd_figures(args: argparse.Namespace) -> int:
    rows = figures.figure_series(
        args.fanout, integer_constrained=args.integer
    )
    print(figures.render_figure(rows, args.fanout))
    print()
    growth = figures.height_growth_table(
        args.fanout, range(1, 8), integer_constrained=args.integer
    )
    print(format_table(
        ["best-case height", "worst-case height"],
        growth,
        title="height needed to hold the same data in the worst case",
    ))
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    rows = []
    for fanout in args.fanouts:
        for penalty in (0, 1, 2):
            size = capacity.max_file_size_with_penalty(
                fanout, penalty, page_bytes=args.page_bytes
            )
            rows.append([fanout, penalty, f"{size / 1e9:,.2f} GB"])
    print(format_table(
        ["fan-out F", "extra levels tolerated", "file size threshold"],
        rows,
        title=f"worst-case height penalties ({args.page_bytes} B data pages)",
    ))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    space, points = _workload_points(args)
    tree = _workload_tree(args, space)
    for i, point in enumerate(points):
        tree.insert(point, i, replace=True)
    stats = tree.tree_stats()
    print(format_table(
        ["metric", "value"],
        [
            ["records", stats.n_points],
            ["height", stats.height],
            ["data pages", stats.data_pages],
            ["index nodes", stats.index_nodes],
            ["guards", stats.total_guards],
            ["min data occupancy", stats.min_data_occupancy],
            ["guaranteed minimum", tree.policy.min_data_occupancy()],
            ["avg data fill", f"{stats.avg_data_occupancy:.2f}"],
            ["promotions", tree.stats.promotions],
            ["demotions", tree.stats.demotions],
            ["search cost (pages)", tree.height + 1],
        ],
        title=f"BV-tree on {args.n} {args.workload} points "
              f"({args.dims}-d, P={args.data_capacity}, F={args.fanout}, "
              f"{args.policy} pages)",
    ))
    tree.check(sample_points=min(200, stats.n_points))
    print("invariants verified")
    if args.show_tree:
        from repro.core.render import render_tree

        print()
        print(render_tree(tree, max_depth=args.show_tree))
    if args.show_partition:
        from repro.core.render import render_partition

        print()
        print(render_partition(tree))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    # Imported lazily: the harness pulls in every baseline structure,
    # which no other subcommand needs (``repro serve`` starts without it).
    from repro.bench.harness import build_index, index_occupancies

    space, points = _workload_points(args)
    rows = []
    for kind in args.structures:
        index = build_index(
            kind,
            space,
            points,
            data_capacity=args.data_capacity,
            fanout=args.fanout,
        )
        data, idx = index_occupancies(index)
        forced = getattr(getattr(index, "stats", None), "forced_splits", 0)
        cascade = getattr(getattr(index, "stats", None), "max_cascade", 0)
        rows.append([
            kind,
            index.height,
            len(data),
            min(data),
            f"{sum(data) / len(data):.1f}",
            forced,
            cascade,
        ])
    print(format_table(
        ["structure", "height", "data pages", "min occ", "avg occ",
         "forced splits", "worst insert"],
        rows,
        title=f"{args.n} {args.workload} points "
              f"(P={args.data_capacity}, F={args.fanout})",
    ))
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    # Imported lazily: the perf harness pulls in the scenario suite and
    # storage backends the analysis subcommands never need.
    from repro.perf import (
        SuiteResult,
        default_path,
        probe_failures,
        render_text,
        resolve_scale,
        run_suite,
    )

    scale = resolve_scale(
        args.scale,
        n_points=args.n,
        repeats=args.repeats,
        warmup=args.warmup,
        seed=args.seed,
        layout=args.layout,
    )
    # Load the baseline before the (potentially long) run so a bad path
    # fails in milliseconds, not after the whole suite has been timed.
    baseline = SuiteResult.load(args.baseline) if args.baseline else None
    progress = None
    if args.format == "text":
        def progress(name: str) -> None:
            print(f"  running {name} ...", file=sys.stderr)
    result = run_suite(scale, suite=args.suite, only=args.only, progress=progress)
    if args.format == "json":
        print(result.to_json(), end="")
    else:
        print(render_text(result, baseline=baseline))
    if not args.no_write:
        out = args.out if args.out else default_path(args.suite)
        written = result.write(out)
        if args.format == "text":
            print(f"\nwrote {written}")
    failures = probe_failures(result)
    for line in failures:
        print(f"perf: {line}", file=sys.stderr)
    return 1 if failures else 0


def _add_workload_args(
    p: argparse.ArgumentParser, n: int, policy: bool = True
) -> None:
    """The workload flags of every tree-building command (``--n`` keeps
    each command's own default; ``--policy`` only where it exists)."""
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="uniform")
    p.add_argument("--n", type=int, default=n)
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-capacity", type=int, default=16)
    p.add_argument("--fanout", type=int, default=16)
    if policy:
        p.add_argument(
            "--policy", choices=["scaled", "uniform"], default="scaled"
        )


def _workload_points(
    args: argparse.Namespace, distinct: bool = False
) -> "tuple[DataSpace, list[tuple[float, ...]]]":
    """The command's data space and workload points.

    ``distinct`` keeps only the first point of each resolution-bit path:
    the tree keys records by those bits, so colliding points would fold
    into one record while a live set tracking float tuples (churn, the
    ``top`` mix, served records) still counted them apart.
    """
    space = DataSpace.unit(args.dims, resolution=18)
    points = WORKLOADS[args.workload](args.n, args.dims, seed=args.seed)
    if distinct:
        return space, distinct_paths(space, points)
    return space, list(points)


def _workload_tree(
    args: argparse.Namespace,
    space: DataSpace,
    durable: "str | None" = None,
    **options: "object",
) -> "object":
    """An empty BV-tree with the command's capacity flags; in a fresh
    durable store in directory ``durable`` when one is given."""
    options.update(
        data_capacity=args.data_capacity,
        fanout=args.fanout,
        policy=getattr(args, "policy", "scaled"),
    )
    if durable is not None:
        from repro.storage.durable import create_durable_tree

        return create_durable_tree(durable, space, **options)
    from repro.core.tree import BVTree

    return BVTree(space, **options)


def _churned_inserts(
    args: argparse.Namespace, points: "list[tuple[float, ...]]"
) -> "object":
    """Inserts of ``points`` with ``--churn`` deletions interleaved."""
    if args.churn:
        return churn(points, delete_fraction=args.churn, seed=args.seed)
    return (("insert", p) for p in points)


def _write_series(
    path: str, args: argparse.Namespace, timeseries: "dict[str, object]"
) -> None:
    """The columnar time-series record of ``doctor --series-out`` and
    ``top --metrics-out``."""
    import json

    record = {
        "workload": args.workload,
        "n": args.n,
        "dims": args.dims,
        "timeseries": timeseries,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    given = sum(
        1 for q in (args.point, args.rect, args.knn) if q is not None
    )
    if given != 1:
        print(
            "explain: give exactly one of --point, --rect, --knn",
            file=sys.stderr,
        )
        return 2
    space, points = _workload_points(args)
    tree = _workload_tree(args, space)
    tree.bulk_load(((p, i) for i, p in enumerate(points)), replace=True)
    if args.point is not None:
        report = tree.explain(point=args.point)
    elif args.rect is not None:
        coords = args.rect
        if len(coords) != 2 * args.dims:
            print(
                f"explain: --rect needs {2 * args.dims} floats "
                f"(lows then highs for {args.dims} dimensions), "
                f"got {len(coords)}",
                file=sys.stderr,
            )
            return 2
        report = tree.explain(
            rect=(coords[: args.dims], coords[args.dims :])
        )
    else:
        report = tree.explain(knn=args.knn, k=args.k)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text(max_rows=args.max_rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    # Imported lazily, like the perf harness: tracing pulls in sinks the
    # analysis subcommands never need.
    import random

    from repro.obs import EVENT_KINDS, JsonlSink, RingSink, read_jsonl

    kinds = set(args.kind or [])
    unknown = kinds - set(EVENT_KINDS)
    if unknown:
        print(
            f"trace: unknown event kind(s): {', '.join(sorted(unknown))}; "
            f"expected one of: {', '.join(sorted(EVENT_KINDS))}",
            file=sys.stderr,
        )
        return 2

    tree = None
    sink: JsonlSink | RingSink | None = None
    if args.input:
        # Analyse an existing capture instead of recording a new one.
        events = read_jsonl(args.input)
        title = f"trace {args.input}"
    else:
        space, points = _workload_points(args)
        tree = _workload_tree(args, space)
        sink = (
            JsonlSink(args.out) if args.out else RingSink(capacity=args.ring)
        )
        tree.tracer.subscribe(sink)
        # A mixed workload: build incrementally (splits, promotions),
        # then a read slice and a delete slice so every event family
        # shows up.
        rng = random.Random(args.seed)
        for i, point in enumerate(points):
            tree.insert(point, i, replace=True)
        for point in rng.sample(points, min(len(points), args.n // 10 or 1)):
            tree.get(point)
        for point in rng.sample(points, min(len(points), args.n // 20 or 1)):
            tree.delete(point)
        tree.tracer.unsubscribe(sink)
        if isinstance(sink, JsonlSink):
            sink.close()
            events = read_jsonl(args.out)
        else:
            events = sink.events()
        title = (
            f"traced {args.workload} workload "
            f"(n={args.n}, {args.dims}-d, P={args.data_capacity}, "
            f"F={args.fanout})"
        )

    total = len(events)
    if kinds:
        events = [event for event in events if event.kind in kinds]
        title += f" [{', '.join(sorted(kinds))}]"
        if args.out:
            # The capture (or the recording above) holds every kind;
            # rewrite --out so the artifact matches the filter.
            with JsonlSink(args.out) as filtered:
                for event in events:
                    filtered.emit(event)

    kind_counts: dict[str, int] = {}
    for event in events:
        kind_counts[event.kind] = kind_counts.get(event.kind, 0) + 1
    print(format_table(
        ["event kind", "count"],
        [[kind, count] for kind, count in sorted(kind_counts.items())],
        title=title,
    ))
    if kinds:
        print(f"\n{len(events)} of {total} events match")
    if args.stats:
        # Summary mode: the per-kind table is the whole report.
        return 0
    if tree is not None:
        counters = {
            name: value
            for name, value in tree.stats.to_dict().items()
            if value
        }
        print()
        print(format_table(
            ["op counter", "value"],
            [[name, value] for name, value in sorted(counters.items())],
        ))
    if args.out:
        print(f"\nwrote {len(events)} events to {args.out}")
    elif isinstance(sink, RingSink) and sink.dropped:
        print(
            f"\nring buffer kept the last {len(sink)} events "
            f"({sink.dropped} older ones dropped; use --out for all)"
        )
    return 0


def _mixed_operations(
    points: "list[tuple[float, ...]]", total: int, seed: int
) -> "object":
    """A steady insert/get/range/knn/delete mix for ``repro top``.

    Inserts draw from ``points`` (assumed path-deduplicated) and reads
    target the live set, so every operation is well-formed; deletes keep
    a minimum population so the dashboard never empties out.
    """
    import random

    rng = random.Random(seed)
    dims = len(points[0])
    live: list[tuple[float, ...]] = []
    cursor = 0
    for value in range(total):
        roll = rng.random()
        can_insert = cursor < len(points)
        if can_insert and (roll < 0.45 or len(live) < 8):
            point = points[cursor]
            cursor += 1
            live.append(point)
            yield ("insert", point, value)
        elif not live:
            break
        elif roll < 0.65:
            yield ("get", live[rng.randrange(len(live))])
        elif roll < 0.75:
            lows = tuple(rng.random() * 0.85 for _ in range(dims))
            yield ("range", lows, tuple(low + 0.1 for low in lows))
        elif roll < 0.85:
            yield ("knn", tuple(rng.random() for _ in range(dims)), 3)
        elif len(live) > 8:
            yield ("delete", live.pop(rng.randrange(len(live))))
        else:
            yield ("get", live[rng.randrange(len(live))])


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs import SlowOpLog, run_top
    from repro.storage import BufferPool, default_store

    space, points = _workload_points(args, distinct=True)
    store = default_store()
    if args.buffer:
        store = BufferPool(store, capacity=args.buffer)
    tree = _workload_tree(args, space, store=store)
    total = args.ops if args.ops else 4 * len(points)
    slow_log = SlowOpLog(
        args.slow_out,
        latency_us=(
            args.slow_ms * 1000.0 if args.slow_ms is not None else None
        ),
        pages=args.slow_pages,
    )
    try:
        result = run_top(
            tree,
            _mixed_operations(points, total, seed=args.seed),
            refresh=args.refresh,
            once=args.once,
            slow_log=slow_log,
            prom_out=args.prom_out,
            metrics_every=args.metrics_every if args.metrics_out else None,
            emit=print,
        )
    finally:
        slow_log.close()
    if args.metrics_out:
        _write_series(args.metrics_out, args, result.timeseries)
    if args.slow_out and slow_log.count:
        print(f"\nwrote {slow_log.count} slow-op records to {args.slow_out}")
    if args.prom_out:
        print(f"wrote Prometheus exposition to {args.prom_out}")
    return result.exit_code


def _cmd_doctor(args: argparse.Namespace) -> int:
    import json

    if args.bench is not None:
        # Snapshot mode: re-render the health block of a written
        # BENCH_<suite>.json and exit with its verdict.
        from repro.perf import SuiteResult

        health = SuiteResult.load(args.bench).probes.get("health")
        if not health:
            print(
                f"doctor: {args.bench} has no health block "
                "(regenerate with repro perf)",
                file=sys.stderr,
            )
            return 2
        if args.format == "json":
            print(json.dumps(health, indent=2))
        else:
            print(f"health block of {args.bench}")
            for name, verdict in health.get("verdicts", {}).items():
                print(f"  [{verdict.upper()}] {name}")
        return 0 if health.get("ok") else 1

    from repro.obs import HealthThresholds, render_doctor_text, run_doctor

    space, points = _workload_points(args, distinct=True)
    result = run_doctor(
        _workload_tree(args, space),
        _churned_inserts(args, points),
        sample_every=args.every,
        thresholds=HealthThresholds(height_slack=args.height_slack),
        workload=args.workload,
    )
    if args.series_out:
        _write_series(args.series_out, args, result.timeseries)
        if args.format == "text":
            print(f"wrote time series to {args.series_out}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(render_doctor_text(result))
    return result.exit_code


def _cmd_recover(args: argparse.Namespace) -> int:
    import json

    from repro.errors import (
        RecoveryError,
        SimulatedCrashError,
        StorageError,
        WalCorruptionError,
    )
    from repro.storage.durable import open_durable_tree
    from repro.storage.faults import FaultPlan

    if args.build:
        # Demo mode: drive a workload into a fresh durable store in the
        # directory, optionally dying at an injected crash point, so the
        # recovery below has something real to chew on.
        plan = FaultPlan.parse(args.fault) if args.fault else FaultPlan()
        space, points = _workload_points(args, distinct=True)
        tree = _workload_tree(
            args, space, durable=args.directory, faults=plan, sync=args.sync
        )
        driven = 0
        try:
            for verb, point in _churned_inserts(args, points):
                if verb == "insert":
                    tree.insert(point, driven, replace=True)
                else:
                    tree.delete(point)
                driven += 1
            tree.store.close(checkpoint=False)
            print(
                f"built {driven} operations, closed without checkpoint "
                f"(the WAL carries everything)",
                file=sys.stderr,
            )
        except SimulatedCrashError as exc:
            print(
                f"simulated crash after {driven} completed operations: "
                f"{exc}",
                file=sys.stderr,
            )

    tracer = None
    sink = None
    if args.trace:
        from repro.obs import JsonlSink
        from repro.obs.tracer import Tracer

        sink = JsonlSink(args.trace)
        tracer = Tracer(sink)
    try:
        tree, report = open_durable_tree(args.directory, tracer=tracer)
    except (RecoveryError, WalCorruptionError, StorageError) as exc:
        print(f"recover: {exc}", file=sys.stderr)
        return 1
    finally:
        if sink is not None:
            sink.close()
    stats = tree.tree_stats()
    if args.format == "json":
        out = report.to_dict()
        out["tree"] = {
            "records": stats.n_points,
            "height": stats.height,
            "data_pages": stats.data_pages,
            "index_nodes": stats.index_nodes,
            "guards": stats.total_guards,
        }
        print(json.dumps(out, indent=2))
    else:
        print(f"recovered {args.directory}: {report.summary()}")
        print(format_table(
            ["metric", "value"],
            [
                ["records", stats.n_points],
                ["height", stats.height],
                ["data pages", stats.data_pages],
                ["index nodes", stats.index_nodes],
                ["guards", stats.total_guards],
                ["committed ops replayed", len(report.op_commits)],
                ["torn tail discarded", "yes" if report.torn_tail else "no"],
            ],
            title="recovered tree (invariants verified)",
        ))
        if args.trace:
            print(f"wrote recovery trace to {args.trace}")
    tree.store.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the serving stack pulls in the concurrency layer,
    # which no other subcommand needs.
    from repro.concurrency import TreeService
    from repro.obs.metrics import MetricsRegistry
    from repro.server import ServingApp, WriteBatcher, serve_app

    space, points = _workload_points(args, distinct=True)
    records = [(point, value) for value, point in enumerate(points)]
    if args.durable:
        tree = _workload_tree(
            args, space, durable=args.durable, layout=args.layout,
            sync=args.sync,
        )
    else:
        tree = _workload_tree(args, space, layout=args.layout)
    tree.bulk_load(records, replace=True)
    service = TreeService(tree)
    batcher = WriteBatcher(service)
    app = ServingApp(service, registry=MetricsRegistry(), batcher=batcher)
    print(
        f"serving {len(records)} {args.workload} records "
        f"({args.dims}-d, layout={args.layout}) "
        f"on http://{args.host}:{args.port} — Ctrl-C to stop",
        file=sys.stderr,
    )
    try:
        serve_app(app, args.host, args.port)
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        batcher.close()
        if args.durable:
            tree.store.close()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: linting pulls in the whole rule registry, which the
    # analysis/demo subcommands never need.
    from repro.lintkit.cli import main as lint_main

    return lint_main(args.lint_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BV-tree reproduction (Freeston, SIGMOD 1995)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="reproduce Figure 7-1/7-2")
    p.add_argument("--fanout", type=int, default=24)
    p.add_argument(
        "--integer",
        action="store_true",
        help="use the integer-constrained worst-case recursion",
    )
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("thresholds", help="§7.2/§7.3 file-size thresholds")
    p.add_argument("--fanouts", type=int, nargs="+", default=[24, 120])
    p.add_argument("--page-bytes", type=int, default=1024)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser(
        "perf",
        help="run the wall-clock benchmark suite",
        description=(
            "Times the core operation suite (insert, bulk_load, "
            "exact_match, range, knn, buffered_get) and "
            "writes BENCH_<suite>.json at the repository root; see "
            "docs/PERFORMANCE.md."
        ),
    )
    p.add_argument(
        "--scale", choices=["full", "smoke"], default="full",
        help="preset sizing (full: 50k points; smoke: 2k, for CI)",
    )
    p.add_argument("--suite", default="core", help="suite name for the output file")
    p.add_argument("--n", type=int, default=None, help="override n_points")
    p.add_argument("--repeats", type=int, default=None, help="override timed repeats")
    p.add_argument("--warmup", type=int, default=None, help="override warmup runs")
    p.add_argument("--seed", type=int, default=None, help="override workload seed")
    p.add_argument(
        "--layout", choices=list(LAYOUTS), default=None,
        help="page layout the timed cases run on (the columnar probe "
             "always measures both lanes)",
    )
    p.add_argument(
        "--only", nargs="+", metavar="CASE", default=None,
        help="run only the named cases",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--out", default=None,
        help="result file path (default: BENCH_<suite>.json at the repo root)",
    )
    p.add_argument(
        "--no-write", action="store_true",
        help="print results without writing the snapshot file",
    )
    p.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="compare against a previously written BENCH_*.json",
    )
    p.set_defaults(func=_cmd_perf)

    for name, help_text, description in (
        (
            "explain",
            "EXPLAIN one query against a workload-built tree",
            (
                "Builds a BV-tree over a synthetic workload, runs one "
                "query under a capture tracer and reports what it "
                "visited, which guards it consulted and why blocks were "
                "pruned; see docs/OBSERVABILITY.md."
            ),
        ),
        (
            "trace",
            "record a traced workload (ring buffer or JSONL file)",
            (
                "Builds a BV-tree incrementally with tracing enabled "
                "(inserts, then a read and a delete slice) and prints "
                "per-kind event counts next to the operation counters; "
                "--out writes the full stream as JSONL."
            ),
        ),
    ):
        p = sub.add_parser(name, help=help_text, description=description)
        _add_workload_args(p, n=2000)
        if name == "explain":
            p.add_argument(
                "--point", type=float, nargs="+", metavar="X",
                help="exact-match query point (dims floats)",
            )
            p.add_argument(
                "--rect", type=float, nargs="+", metavar="X",
                help="range query box: dims lows then dims highs",
            )
            p.add_argument(
                "--knn", type=float, nargs="+", metavar="X",
                help="k-NN query point (dims floats)",
            )
            p.add_argument("--k", type=int, default=3, help="neighbours for --knn")
            p.add_argument("--format", choices=["text", "json"], default="text")
            p.add_argument(
                "--max-rows", type=int, default=20,
                help="pruned-block rows shown in text format",
            )
            p.set_defaults(func=_cmd_explain)
        else:
            p.add_argument(
                "--out", default=None, metavar="PATH",
                help="write the (filtered) event stream as JSONL to PATH",
            )
            p.add_argument(
                "--ring", type=int, default=65536,
                help="ring-buffer capacity when --out is not given",
            )
            p.add_argument(
                "--input", default=None, metavar="PATH",
                help="analyse an existing JSONL capture instead of "
                     "recording a new workload",
            )
            p.add_argument(
                "--kind", action="append", default=None, metavar="KIND",
                help="keep only this event kind (repeatable)",
            )
            p.add_argument(
                "--stats", action="store_true",
                help="print only the per-kind event count summary",
            )
            p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "doctor",
        help="score the paper's three guarantees on a live workload",
        description=(
            "Drives a workload under the guarantee monitor (live "
            "per-level occupancy, height, split chains), audits the "
            "incremental gauges against a full sweep, scores the three "
            "paper guarantees and prints a per-level health table. "
            "Exits 0 when all guarantees hold, 1 on a violation, 2 on "
            "audit drift; see docs/OBSERVABILITY.md."
        ),
    )
    _add_workload_args(p, n=10_000)
    p.add_argument(
        "--churn", type=float, default=0.0, metavar="FRACTION",
        help="interleave this fraction of deletions into the stream",
    )
    p.add_argument(
        "--every", type=int, default=256, metavar="OPS",
        help="time-series sampling stride (operations per sample)",
    )
    p.add_argument(
        "--height-slack", type=int, default=1,
        help="extra levels tolerated above the analytic height bound",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--series-out", default=None, metavar="PATH",
        help="write the columnar health time series as JSON to PATH",
    )
    p.add_argument(
        "--bench", default=None, metavar="PATH",
        help="render the health block of an existing BENCH_<suite>.json "
             "instead of running a workload",
    )
    p.set_defaults(func=_cmd_doctor)

    p = sub.add_parser(
        "top",
        help="live per-operation cost and health dashboard",
        description=(
            "Drives a mixed insert/get/range/knn/delete stream under "
            "the cost profiler and the guarantee monitor and renders a "
            "refreshing dashboard: ops/sec and p50/p99 latency per "
            "operation kind, page accesses, buffer hit rate, WAL "
            "fsyncs, slow-op captures and live guarantee verdicts. "
            "--once drives the whole stream and prints one final frame "
            "(the CI mode). Exits 0 unless a guarantee is violated; "
            "see docs/OBSERVABILITY.md."
        ),
    )
    _add_workload_args(p, n=5_000)
    p.add_argument(
        "--buffer", type=int, default=256, metavar="PAGES",
        help="buffer-pool capacity (0 disables the pool)",
    )
    p.add_argument(
        "--ops", type=int, default=None, metavar="COUNT",
        help="operations to drive (default: 4x the workload size)",
    )
    p.add_argument(
        "--refresh", type=float, default=1.0, metavar="SECONDS",
        help="dashboard refresh interval in live mode",
    )
    p.add_argument(
        "--once", action="store_true",
        help="drive the whole stream, print one frame, exit",
    )
    p.add_argument(
        "--slow-ms", type=float, default=10.0, metavar="MS",
        help="slow-op latency threshold in milliseconds",
    )
    p.add_argument(
        "--slow-pages", type=int, default=None, metavar="PAGES",
        help="also capture ops touching at least this many pages",
    )
    p.add_argument(
        "--slow-out", default=None, metavar="PATH",
        help="write slow-op records (with EXPLAIN attachments) as JSONL",
    )
    p.add_argument(
        "--prom-out", default=None, metavar="PATH",
        help="write the Prometheus text exposition after each frame",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the columnar registry time series as JSON to PATH "
             "(the record doctor --series-out writes)",
    )
    p.add_argument(
        "--metrics-every", type=int, default=1000, metavar="OPS",
        help="operations between time-series samples",
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "recover",
        help="crash-recover a durable store directory and verify the tree",
        description=(
            "Replays the write-ahead log of a repro.storage.durable "
            "store over its last checkpoint (discarding torn and "
            "uncommitted tails), rebuilds the BV-tree, verifies its "
            "invariants and prints a recovery report.  With --build, "
            "first constructs a store in the directory by driving a "
            "workload — optionally dying at an injected --fault crash "
            "point — so the full crash/recover loop can be exercised "
            "from the command line; see docs/DURABILITY.md."
        ),
    )
    p.add_argument("directory", help="durable store directory (wal.log, pages.dat)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write recovery trace events (recovery_begin, wal_replay, "
             "recovery_end) as JSONL to PATH",
    )
    p.add_argument(
        "--build", action="store_true",
        help="first build a durable store in the directory from a workload",
    )
    p.add_argument(
        "--fault", default=None, metavar="SPEC",
        help="fault plan for --build, e.g. 'after-appends=200,tail=torn' "
             "(tokens: after-appends=N, checkpoint=mid-write|before-truncate, "
             "tail=keep|drop|torn, torn-fraction=F, drop-fsync)",
    )
    _add_workload_args(p, n=2000, policy=False)
    p.add_argument(
        "--churn", type=float, default=0.0, metavar="FRACTION",
        help="interleave this fraction of deletions while building",
    )
    p.add_argument(
        "--sync", choices=["commit", "os"], default="commit",
        help="WAL durability for --build: fsync per commit, or OS cache only",
    )
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser(
        "serve",
        help="serve a workload-built tree over HTTP/JSON",
        description=(
            "Builds a BV-tree over a synthetic workload, wraps it in "
            "the single-writer/many-readers TreeService and serves the "
            "HTTP/JSON API (get/insert/delete/range/knn/batch/bulk plus "
            "/health, /stats and Prometheus /metrics) until Ctrl-C. "
            "One loop serves every request: writes parsed in one pass "
            "over the ready sockets coalesce into one group commit; "
            "reads run against immutable snapshots. "
            "See docs/SERVING.md."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8077)
    _add_workload_args(p, n=10_000, policy=False)
    p.add_argument(
        "--layout", choices=list(LAYOUTS), default=DEFAULT_LAYOUT,
        help="page layout of the served tree (object is the test oracle)",
    )
    p.add_argument(
        "--durable", default=None, metavar="DIR",
        help="back the tree with a WAL-backed durable store in DIR "
             "(survives crashes, see repro recover)",
    )
    p.add_argument(
        "--sync", choices=["commit", "os"], default="os",
        help="WAL durability with --durable",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "lint",
        help="run the repro.lintkit static analyser",
        description=(
            "Delegates every following argument to python -m repro.lintkit "
            "(run `python -m repro.lintkit --help` for its options)."
        ),
    )
    p.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        metavar="ARGS",
        help="arguments for repro.lintkit (paths, --format, --select, ...)",
    )
    p.set_defaults(func=_cmd_lint)

    for name, help_text in (
        ("demo", "build a BV-tree and print its statistics"),
        ("compare", "compare the BV-tree with the baselines"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_workload_args(p, n=10_000, policy=name == "demo")
        if name == "demo":
            p.add_argument(
                "--show-tree",
                type=int,
                default=0,
                metavar="DEPTH",
                help="print the index structure to the given depth",
            )
            p.add_argument(
                "--show-partition",
                action="store_true",
                help="print a raster of the 2-d level-0 partition",
            )
            p.set_defaults(func=_cmd_demo)
        else:
            p.add_argument(
                "--structures",
                nargs="+",
                choices=STRUCTURES,
                default=["bv", "kdb", "bang", "lsd", "zorder"],
            )
            p.set_defaults(func=_cmd_compare)
    return parser


#: Options naming a file a command writes; :func:`main` checks each one
#: given before the command starts, so a bad path costs milliseconds
#: and one ``error:`` line, not a finished workload and a traceback.
_OUTPUT_OPTIONS = (
    "out", "series_out", "prom_out", "metrics_out", "slow_out", "trace",
)


def _check_outputs(args: argparse.Namespace) -> None:
    """Open every output path for append, leaving nothing behind."""
    for dest in _OUTPUT_OPTIONS:
        path = getattr(args, dest, None)
        if path is None:
            continue
        existed = os.path.exists(path)
        try:
            with open(path, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            flag = "--" + dest.replace("_", "-")
            raise ReproError(
                f"{flag} {path}: cannot write ({exc.strerror or exc})"
            ) from None
        if not existed:
            os.remove(path)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point (``python -m repro``)."""
    arglist = list(sys.argv[1:] if argv is None else argv)
    if arglist[:1] == ["lint"]:
        # Hand everything after "lint" to the lintkit parser untouched;
        # argparse.REMAINDER would swallow positionals but not leading
        # options such as ``repro lint --list-rules``.
        return _cmd_lint(
            argparse.Namespace(lint_args=arglist[1:])
        )
    args = build_parser().parse_args(arglist)
    try:
        _check_outputs(args)
        return args.func(args)
    except ReproError as exc:
        # The one error edge: bad user input (a malformed point, a
        # missing file, an out-of-range option) is one stderr line and
        # exit 2, never a traceback.  Commands that own other exit codes
        # (doctor's verdicts, recover's failed recovery) return them.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
