"""Benchmark case definitions and the suite registry.

A benchmark *case* is a named, timed callable plus the metadata needed to
report it (operation count for per-op rates, an optional counter
extractor).  Cases are produced by *factories* registered with the
:func:`benchmark` decorator; a factory receives the run's :class:`Scale`
and the shared scenario context (see :mod:`repro.perf.scenarios`), so the
expensive fixtures — the loaded tree, the query sets — are built once per
suite rather than once per case.

A *probe* is a bounded side workload that runs once after the timed
cases and fills one top-level block of the snapshot (tracer overhead,
guarantee health, WAL cost, layout oracle, profiler overhead).  Each
probe module registers one :class:`Probe` with :func:`register_probe`;
the runner, the text report, the baseline gate and the JSON round-trip
all iterate :func:`probes`, so everything about a probe lives in its
module (:mod:`repro.perf` imports it, fixing the run order).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

from repro.errors import ReproError

__all__ = [
    "Case",
    "CaseFactory",
    "Probe",
    "REGISTRY",
    "SCALES",
    "Scale",
    "benchmark",
    "probes",
    "register_probe",
    "resolve_scale",
]


@dataclass(frozen=True)
class Scale:
    """The knobs that size a benchmark run.

    The defaults are the *full* scale the acceptance numbers in
    ``docs/PERFORMANCE.md`` are recorded at; the ``smoke`` preset trades
    statistical quality for speed and is what CI runs.
    """

    name: str = "full"
    n_points: int = 50_000
    dims: int = 2
    resolution: int = 20
    data_capacity: int = 32
    fanout: int = 32
    n_queries: int = 400
    n_range_queries: int = 100
    n_knn_queries: int = 50
    k: int = 10
    seed: int = 0
    repeats: int = 5
    warmup: int = 1
    #: Page layout the timed cases run on ("object" or "columnar"); the
    #: columnar probe always builds both lanes regardless.
    layout: str = "object"

    def to_dict(self) -> dict[str, Any]:
        """The scale as a JSON-ready mapping (recorded in every result)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


SCALES: dict[str, Scale] = {
    "full": Scale(),
    "smoke": Scale(
        name="smoke",
        n_points=2_000,
        n_queries=100,
        n_range_queries=25,
        n_knn_queries=10,
        repeats=2,
        warmup=1,
    ),
}


def resolve_scale(name: str, **overrides: Any) -> Scale:
    """Look up a preset scale and apply explicit overrides.

    Overrides with value ``None`` are ignored, so CLI options can be
    passed through unconditionally.
    """
    try:
        base = SCALES[name]
    except KeyError:
        raise ReproError(
            f"unknown scale {name!r}; presets: {sorted(SCALES)}"
        ) from None
    chosen = {k: v for k, v in overrides.items() if v is not None}
    return replace(base, **chosen) if chosen else base


@dataclass
class Case:
    """One runnable benchmark.

    ``run`` receives the value ``setup`` returned (``None`` when there is
    no setup) and its last timed return value is handed to ``counters``
    to extract machine-independent figures (page accesses, result sizes)
    that accompany the wall-clock samples in the JSON output.
    """

    name: str
    description: str
    ops: int
    run: Callable[[Any], Any]
    setup: Callable[[], Any] | None = None
    counters: Callable[[Any], dict[str, int]] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)


#: A factory builds a case from the run's scale and the shared scenario
#: context (an opaque object owned by :mod:`repro.perf.scenarios`).
CaseFactory = Callable[[Scale, Any], Case]

#: Registered factories in registration order — which is execution order,
#: so suites are deterministic and the JSON output is diffable.
REGISTRY: dict[str, CaseFactory] = {}


def benchmark(name: str) -> Callable[[CaseFactory], CaseFactory]:
    """Register a case factory under ``name`` (must be unique)."""

    def register(factory: CaseFactory) -> CaseFactory:
        if name in REGISTRY:
            raise ReproError(f"benchmark {name!r} registered twice")
        REGISTRY[name] = factory
        return factory

    return register


#: A snapshot block: the JSON-ready mapping one probe produces.
Block = dict[str, Any]


def _no_lines(*blocks: Block) -> list[str]:
    return []


@dataclass(frozen=True)
class Probe:
    """One snapshot block: how to measure it, draw it and gate on it.

    ``regressions(base, cur)`` lists what got worse since a baseline
    block (``repro perf --baseline``); ``failures(cur)`` lists what makes
    the run itself fail (``repro perf`` exits 1).
    """

    #: Top-level key of the block in ``BENCH_<suite>.json``.
    name: str
    #: Progress line printed while the probe runs.
    label: str
    run: Callable[[Scale], Block]
    title: Callable[[Block], str]
    rows: Callable[[Block], list[list[Any]]]
    regressions: Callable[[Block, Block], list[str]] = _no_lines
    failures: Callable[[Block], list[str]] = _no_lines


#: Registered probes in registration order — which is run order;
#: :mod:`repro.perf` imports the probe modules in that order.
_PROBES: dict[str, Probe] = {}


def register_probe(probe: Probe) -> Probe:
    """Register ``probe`` under its block name (must be unique)."""
    if probe.name in _PROBES:
        raise ReproError(f"probe {probe.name!r} registered twice")
    _PROBES[probe.name] = probe
    return probe


def probes() -> list[Probe]:
    """Every registered probe, in run order."""
    return list(_PROBES.values())
