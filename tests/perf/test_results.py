"""JSON round-trip and snapshot comparison for benchmark results."""

import json

import pytest

from repro.errors import ReproError
from repro.perf.results import (
    BenchResult,
    SuiteResult,
    compare,
    default_path,
)


def make_result(name="insert", samples=(0.2, 0.1)):
    return BenchResult(
        name=name,
        description=f"{name} case",
        ops=100,
        repeats=len(samples),
        warmup=1,
        samples=list(samples),
        counters={"pages_visited": 42},
    )


def make_suite(**kwargs):
    defaults = dict(
        suite="core",
        created="2026-01-01T00:00:00+00:00",
        scale={"name": "smoke", "n_points": 100},
        results=[make_result()],
        derived={"bulk_load_speedup": 3.5},
    )
    defaults.update(kwargs)
    return SuiteResult(**defaults)


class TestBenchResult:
    def test_best_and_per_op(self):
        r = make_result(samples=(0.2, 0.1))
        assert r.best == 0.1
        assert r.per_op_us == pytest.approx(1000.0)

    def test_round_trip(self):
        r = make_result()
        again = BenchResult.from_dict(r.to_dict())
        assert again == r


class TestSuiteResult:
    def test_write_and_load(self, tmp_path):
        suite = make_suite()
        path = suite.write(tmp_path / "BENCH_core.json")
        loaded = SuiteResult.load(path)
        assert loaded == suite

    def test_observability_round_trips(self, tmp_path):
        obs = {"overhead": {"disabled_us_per_op": 15.5}, "probe_points": 300}
        suite = make_suite(probes={"observability": obs})
        loaded = SuiteResult.load(suite.write(tmp_path / "b.json"))
        assert loaded.probes["observability"] == obs

    def test_pre_probe_snapshots_still_load(self):
        # The observability field is additive: a snapshot written before
        # the probe existed (no key at all) loads with an empty dict.
        data = make_suite().to_dict()
        del data["observability"]
        loaded = SuiteResult.from_dict(data)
        assert loaded.probes.get("observability", {}) == {}

    def test_json_is_stable_schema(self, tmp_path):
        path = make_suite().write(tmp_path / "b.json")
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1
        assert {"suite", "created", "scale", "results", "derived"} <= set(data)
        assert {"name", "samples", "best", "per_op_us", "counters"} <= set(
            data["results"][0]
        )

    def test_rejects_unknown_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        data = make_suite().to_dict()
        data["schema_version"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(ReproError):
            SuiteResult.load(path)

    def test_rejects_unreadable_file(self, tmp_path):
        with pytest.raises(ReproError):
            SuiteResult.load(tmp_path / "missing.json")
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        with pytest.raises(ReproError):
            SuiteResult.load(garbled)

    def test_result_lookup(self):
        suite = make_suite()
        assert suite.result("insert").name == "insert"
        with pytest.raises(ReproError):
            suite.result("nope")

    def test_default_path(self, tmp_path):
        assert default_path("core", root=tmp_path) == tmp_path / "BENCH_core.json"
        # Without a root the file lands at the repository root.
        assert default_path("core").name == "BENCH_core.json"
        assert (default_path("core").parent / "pyproject.toml").exists()


class TestCompare:
    def test_speedup_is_baseline_over_current(self):
        baseline = make_suite(results=[make_result(samples=(0.4,))])
        current = make_suite(results=[make_result(samples=(0.2,))])
        rows = compare(baseline, current)
        assert rows == [
            {
                "name": "insert",
                "baseline_best": 0.4,
                "current_best": 0.2,
                "speedup": 2.0,
            }
        ]

    def test_one_sided_cases(self):
        baseline = make_suite(results=[make_result(name="old_case")])
        current = make_suite(results=[make_result(name="new_case")])
        rows = {row["name"]: row for row in compare(baseline, current)}
        assert rows["new_case"]["baseline_best"] is None
        assert rows["new_case"]["speedup"] is None
        assert rows["old_case"]["current_best"] is None
