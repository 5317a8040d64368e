"""Measurement arithmetic shared by the benchmark and its self-tests.

Pure functions over plain lists, no repro imports: percentiles that
refuse to extrapolate a tail, per-op failure accounting, span self time
and the host calibration loop.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that the "tail" is a handful of outliers.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to have that tail."""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``samples``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie strictly beyond the reported rank.
    """
    n = len(samples)
    rank = max(1, math.ceil(q * n))  # 1-based rank of the reported sample
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it, "
            f"need {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


class Tally:
    """Per-kind latencies and the attempted/failed op accounting.

    Every individual op counts once, whether it travelled alone or in a
    server-side group commit: the tally never sees groups.
    """

    def __init__(self) -> None:
        self.latency_us: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: CPU seconds the issuing client threads spent.
        self.cpu_s = 0.0

    def record(self, kind: str, latency_us: float, ok: bool, why: str = "") -> None:
        self.latency_us.setdefault(kind, []).append(latency_us)
        self.attempted += 1
        if not ok:
            self.fail(why or kind)

    def fail(self, why: str) -> None:
        """Count one failed op (error status, wrong answer or timeout)."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def merge(self, other: "Tally") -> None:
        for kind, values in other.latency_us.items():
            self.latency_us.setdefault(kind, []).extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.cpu_s += other.cpu_s
        self.failures.extend(other.failures[: max(0, 20 - len(self.failures))])

    def count(self, kind: str) -> int:
        return len(self.latency_us.get(kind, ()))

    def ops(self) -> int:
        return sum(len(v) for v in self.latency_us.values())


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's coverage.

    ``spans`` holds ``(sid, name, start, end, parent_sid, request_id)``
    tuples.  Child intervals are clipped to the parent and merged before
    subtraction, so overlapping children (a parent that waited on two
    threads) are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _name, start, end, parent, _req in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[int, float] = {}
    for sid, _name, start, end, _parent, _req in spans:
        covered = 0.0
        cursor = start
        for cstart, cend in sorted(children.get(sid, ())):
            cstart = max(cstart, cursor)
            cend = min(cend, end)
            if cend > cstart:
                covered += cend - cstart
                cursor = cend
        out[sid] = (end - start) - covered
    return out


def calibrate(rounds: int = 5) -> list[float]:
    """Time a fixed pure-Python loop ``rounds`` times (µs each).

    Touches no repro code: it moves with the host, not the program, so
    a shift in it between runs is host drift.
    """
    out = []
    for _ in range(rounds):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc + i * i) % 1_000_003
        out.append((perf_counter() - t0) * 1e6)
    return out


def median(values: list[float]) -> float:
    return statistics.median(values)
