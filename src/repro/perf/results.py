"""Benchmark result records and their JSON round-trip.

A suite run serialises to ``BENCH_<suite>.json`` at the repository root —
one file per suite, overwritten per run, committed alongside the change it
measures so the wall-clock trajectory lives in history next to the code.
The schema is documented in ``docs/PERFORMANCE.md``; :func:`compare` diffs
two snapshots for the CLI's ``--baseline`` mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.perf import registry

__all__ = [
    "BenchResult",
    "SuiteResult",
    "compare",
    "default_path",
]

#: Bumped when the JSON schema changes shape incompatibly.
SCHEMA_VERSION = 1


@dataclass
class BenchResult:
    """Wall-clock samples and counters for one benchmark case."""

    name: str
    description: str
    ops: int
    repeats: int
    warmup: int
    samples: list[float]
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def best(self) -> float:
        """Fastest sample in seconds (the headline estimator)."""
        return min(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def per_op_us(self) -> float:
        """Best time per logical operation, in microseconds."""
        return self.best / self.ops * 1e6

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "ops": self.ops,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "samples": self.samples,
            "best": self.best,
            "mean": self.mean,
            "per_op_us": self.per_op_us,
            "counters": self.counters,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BenchResult":
        return cls(
            name=data["name"],
            description=data["description"],
            ops=data["ops"],
            repeats=data["repeats"],
            warmup=data["warmup"],
            samples=list(data["samples"]),
            counters=dict(data.get("counters", {})),
        )


@dataclass
class SuiteResult:
    """Everything one ``repro perf`` run measured."""

    suite: str
    created: str
    scale: dict[str, Any]
    results: list[BenchResult]
    #: Cross-case figures (speedups, equal-visit checks) computed by the
    #: runner; see :func:`repro.perf.runner.derive_metrics`.
    derived: dict[str, Any] = field(default_factory=dict)
    #: One block per registered probe, keyed by its top-level JSON key
    #: (see :class:`repro.perf.registry.Probe`).  Blocks are additive: a
    #: snapshot written before a probe existed loads without its block.
    probes: dict[str, dict[str, Any]] = field(default_factory=dict)

    def result(self, name: str) -> BenchResult:
        """The named case's result (ReproError if the run skipped it)."""
        for result in self.results:
            if result.name == name:
                return result
        raise ReproError(f"suite {self.suite!r} has no case {name!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "created": self.created,
            "scale": self.scale,
            "results": [result.to_dict() for result in self.results],
            "derived": self.derived,
            **{
                p.name: self.probes.get(p.name, {})
                for p in registry.probes()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def write(self, path: Path | str) -> Path:
        """Serialise to ``path`` and return it."""
        target = Path(path)
        target.write_text(self.to_json())
        return target

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SuiteResult":
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ReproError(
                f"unsupported BENCH schema version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        return cls(
            suite=data["suite"],
            created=data["created"],
            scale=dict(data["scale"]),
            results=[BenchResult.from_dict(r) for r in data["results"]],
            derived=dict(data.get("derived", {})),
            probes={
                p.name: dict(data[p.name])
                for p in registry.probes()
                if data.get(p.name)
            },
        )

    @classmethod
    def load(cls, path: Path | str) -> "SuiteResult":
        """Deserialise a snapshot previously written by :meth:`write`."""
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read benchmark snapshot {path}: {exc}")
        if not isinstance(data, dict):
            raise ReproError(f"benchmark snapshot {path} is not an object")
        try:
            return cls.from_dict(data)
        except KeyError as exc:
            raise ReproError(
                f"benchmark snapshot {path} has no {exc} field"
            ) from None


def default_path(suite: str, root: Path | str | None = None) -> Path:
    """``BENCH_<suite>.json`` at the repository root (or ``root``)."""
    base = Path(root) if root is not None else _repo_root()
    return base / f"BENCH_{suite}.json"


def _repo_root() -> Path:
    """The repository root (three levels above ``src/repro/perf``)."""
    return Path(__file__).resolve().parents[3]


def compare(
    baseline: SuiteResult, current: SuiteResult
) -> list[dict[str, Any]]:
    """Per-case comparison rows between two snapshots.

    ``speedup`` is baseline-best over current-best: above 1.0 means the
    current run is faster.  Cases present in only one snapshot are listed
    with the other side's fields as ``None``.
    """
    rows: list[dict[str, Any]] = []
    base_by_name = {r.name: r for r in baseline.results}
    seen: set[str] = set()
    for result in current.results:
        seen.add(result.name)
        base = base_by_name.get(result.name)
        rows.append({
            "name": result.name,
            "baseline_best": base.best if base else None,
            "current_best": result.best,
            "speedup": (base.best / result.best) if base else None,
        })
    for name, base in base_by_name.items():
        if name not in seen:
            rows.append({
                "name": name,
                "baseline_best": base.best,
                "current_best": None,
                "speedup": None,
            })
    return rows
