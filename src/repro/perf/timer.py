"""Wall-clock measurement primitives.

The page-access benchmarks under ``benchmarks/`` count I/O operations — a
machine-independent cost model, which is why they gate CI.  This module
measures the other axis: how long the Python implementation actually takes.
Wall-clock numbers are machine-dependent, so the harness records them as a
*trajectory* (``BENCH_*.json`` snapshots compared across commits on the
same machine) rather than asserting absolute thresholds.

Methodology is the standard microbenchmark recipe: untimed warmup runs to
populate caches and JIT-warm nothing in particular (CPython has no JIT,
but allocator pools and branch predictors do warm up), several timed
repeats with the garbage collector disabled during each sample, and the
*best* sample as the headline number — the minimum is the least noisy
estimator of the code's cost because every source of interference only
adds time ([Chen & Revels 2016]-style reasoning).

Overhead *ratios* (instrumented over bare) need a different schedule:
machine noise drifts on the scale of whole timing loops, so two
configurations timed one after the other can disagree by more than the
overhead being measured.  :func:`paired` times every configuration once
per round on the same input, rotating the order each round, and reports
a ratio as the median of the per-round ratios — both sides of each ratio
saw the same noise window, and the median shrugs off the odd round that
lands on a descheduling spike.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, ContextManager, Iterable, Mapping

from repro.errors import ReproError

__all__ = [
    "LOOKUP_CHUNK",
    "LOOKUP_ROUNDS",
    "Paired",
    "Timing",
    "measure",
    "paired",
    "paired_lookups",
]

#: Exact-match lookups per timed chunk of :func:`paired_lookups` (small,
#: so all configurations of one round share a single noise window).
LOOKUP_CHUNK = 64
#: Rounds of :func:`paired_lookups`; its ratios are medians across them.
LOOKUP_ROUNDS = 180
#: Distinct probe points the rounds cycle through.
_LOOKUP_SPAN = 4096


@dataclass
class Timing:
    """Samples from one measured benchmark case.

    ``samples`` holds one wall-clock duration (seconds) per timed repeat;
    ``last_result`` is whatever the final timed run returned, so counter
    extraction can inspect real output without an extra untimed run.
    """

    samples: list[float]
    last_result: Any = field(default=None, repr=False)

    @property
    def best(self) -> float:
        """The minimum sample — the headline estimator (module docstring)."""
        return min(self.samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        return statistics.fmean(self.samples)

    @property
    def median(self) -> float:
        """Median of the samples."""
        return statistics.median(self.samples)

    @property
    def stddev(self) -> float:
        """Sample standard deviation (0.0 for a single repeat)."""
        if len(self.samples) < 2:
            return 0.0
        return statistics.stdev(self.samples)


def measure(
    run: Callable[[Any], Any],
    setup: Callable[[], Any] | None = None,
    repeats: int = 5,
    warmup: int = 1,
) -> Timing:
    """Time ``run`` over ``warmup + repeats`` executions.

    ``setup`` (untimed) is invoked before *every* execution and its return
    value passed to ``run`` — benchmarks that mutate state (building a
    tree, say) get a fresh subject per sample, so every sample measures
    the same work.  Read-only benchmarks pass ``setup=None`` and receive
    ``None``.  The garbage collector is paused around each timed section
    so a collection triggered by one sample cannot be billed to another;
    its prior enabled state is restored afterwards.
    """
    if repeats < 1:
        raise ReproError(f"repeats must be at least 1, got {repeats}")
    if warmup < 0:
        raise ReproError(f"warmup must be non-negative, got {warmup}")
    samples: list[float] = []
    last_result: Any = None
    for i in range(warmup + repeats):
        state = setup() if setup is not None else None
        elapsed, result = _timed(run, state)
        if i >= warmup:
            samples.append(elapsed)
            last_result = result
    return Timing(samples=samples, last_result=last_result)


def _timed(run: Callable[..., Any], *args: Any) -> tuple[float, Any]:
    """``(seconds, result)`` of one ``run(*args)`` with the GC paused."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        result = run(*args)
        return perf_counter() - t0, result
    finally:
        if gc_was_enabled:
            gc.enable()


@dataclass
class Paired:
    """Per-round samples (seconds) of each configuration of :func:`paired`."""

    samples: dict[str, list[float]]

    def median(self, config: str) -> float:
        """Median sample of one configuration."""
        return statistics.median(self.samples[config])

    def ratio(self, config: str, baseline: str) -> float:
        """Median over rounds of ``config`` time over ``baseline`` time."""
        return statistics.median(
            a / b
            for a, b in zip(self.samples[config], self.samples[baseline])
        )


def paired(
    run: Callable[[Any, Any], Any],
    configs: Mapping[str, Callable[[], ContextManager[Any]]],
    inputs: Iterable[Any],
    warm: Callable[[Any], Any] | None = None,
) -> Paired:
    """Time ``run`` under every configuration once per round.

    One round per element ``item`` of ``inputs``: ``warm(item)`` runs
    first (untimed, no configuration entered), then each configuration,
    in an order rotated by one every round, enters ``configs[name]()``
    untimed — attaching an instrument, building a fresh store — and the
    GC-paused ``run(state, item)`` is timed, ``state`` being the value
    the context yielded.
    """
    names = list(configs)
    samples: dict[str, list[float]] = {name: [] for name in names}
    for rnd, item in enumerate(inputs):
        if warm is not None:
            warm(item)
        shift = rnd % len(names)
        for name in names[shift:] + names[:shift]:
            with configs[name]() as state:
                samples[name].append(_timed(run, state, item)[0])
    return Paired(samples=samples)


def paired_lookups(
    get: Callable[[Any], Any],
    points: list[Any],
    configs: Mapping[str, Callable[[], ContextManager[Any]]],
) -> Paired:
    """:func:`paired` over ``LOOKUP_CHUNK``-point exact-match chunks,
    with samples in seconds per lookup.

    ``configs`` maps each configuration to the context it is timed in
    (``contextlib.nullcontext`` for the bare loop).  Each of the
    ``LOOKUP_ROUNDS`` rounds takes the next chunk of the first
    ``_LOOKUP_SPAN`` points and warms it untimed, so every page the
    chunk touches is pooled before timing.
    """
    span = points[:_LOOKUP_SPAN]
    chunks = [
        span[i : i + LOOKUP_CHUNK]
        for i in range(0, len(span) - LOOKUP_CHUNK + 1, LOOKUP_CHUNK)
    ] or [span]

    def lookups(chunk: list[Any]) -> None:
        for point in chunk:
            get(point)

    timing = paired(
        lambda _, chunk: lookups(chunk),
        configs,
        (chunks[rnd % len(chunks)] for rnd in range(LOOKUP_ROUNDS)),
        warm=lookups,
    )
    size = len(chunks[0])
    return Paired({
        name: [t / size for t in samples]
        for name, samples in timing.samples.items()
    })
