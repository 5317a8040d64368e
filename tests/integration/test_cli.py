"""Tests for the command-line interface."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main

def write_snapshot(path, **blocks):
    """A minimal valid BENCH snapshot carrying the given probe blocks."""
    from repro.perf import SuiteResult

    return SuiteResult(
        suite="test",
        created="2026-01-01T00:00:00+00:00",
        scale={},
        results=[],
        probes=blocks,
    ).write(path)


def bad_snapshot(tmp_path, kind):
    """A snapshot path that cannot be loaded, one per failure kind."""
    path = tmp_path / f"{kind}.json"
    if kind == "garbled":
        path.write_text("{not json")
    elif kind == "not_an_object":
        path.write_text("[1, 2]")
    elif kind == "missing_field":
        path.write_text(json.dumps({"schema_version": 1}))
    elif kind == "unknown_version":
        write_snapshot(path)
        data = json.loads(path.read_text())
        data["schema_version"] = 999
        path.write_text(json.dumps(data))
    return path


BAD_SNAPSHOTS = [
    "missing", "garbled", "not_an_object", "missing_field", "unknown_version",
]


PERF_TINY = [
    "perf",
    "--scale", "smoke",
    "--n", "300",
    "--repeats", "1",
    "--warmup", "0",
]


class TestFigures:
    def test_figure_7_1(self, capsys):
        assert main(["figures", "--fanout", "24"]) == 0
        out = capsys.readouterr().out
        assert "F = 24" in out
        assert "worst-case height" in out

    def test_integer_variant(self, capsys):
        assert main(["figures", "--fanout", "24", "--integer"]) == 0
        assert "F = 24" in capsys.readouterr().out


class TestThresholds:
    def test_default(self, capsys):
        assert main(["thresholds"]) == 0
        out = capsys.readouterr().out
        assert "GB" in out
        assert "24" in out and "120" in out

    def test_custom_page_size(self, capsys):
        assert main(["thresholds", "--fanouts", "60", "--page-bytes", "4096"]) == 0
        assert "4096" in capsys.readouterr().out


class TestDemo:
    def test_demo_runs_and_verifies(self, capsys):
        assert main(
            ["demo", "--workload", "clustered", "--n", "2000", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "invariants verified" in out
        assert "records" in out

    def test_demo_uniform_policy(self, capsys):
        assert main(
            ["demo", "--n", "1500", "--policy", "uniform", "--dims", "3"]
        ) == 0
        assert "uniform pages" in capsys.readouterr().out


class TestCompare:
    def test_compare_two_structures(self, capsys):
        assert main(
            [
                "compare",
                "--n", "2000",
                "--structures", "bv", "kdb",
                "--data-capacity", "8",
                "--fanout", "8",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "bv" in out and "kdb" in out
        assert "forced splits" in out

    def test_structure_choices_are_the_harness_kinds(self):
        from repro.bench.harness import INDEX_KINDS
        from repro.cli import STRUCTURES

        assert STRUCTURES == sorted(INDEX_KINDS)

    def test_cli_import_leaves_the_baselines_out(self):
        # ``repro serve`` imports repro.cli before it can answer, and
        # ``repro perf`` the runner; the comparison baselines are only
        # for ``compare``.
        loaded = modules_after_import(
            "repro.cli, repro.perf.runner", ("repro.baselines", "repro.bench")
        )
        assert loaded == []

    def test_serving_imports_leave_asyncio_and_ssl_out(self):
        # The server is one selectors loop; asyncio (and the ssl module
        # with libssl/libcrypto it pulls in) would cost the served
        # process several MB of resident memory it never uses.
        loaded = modules_after_import(
            "repro.cli, repro.server", ("asyncio", "ssl", "_ssl")
        )
        assert loaded == []


def modules_after_import(modules, prefixes):
    """The modules named by ``prefixes`` that a fresh interpreter has
    loaded after ``import {modules}``."""
    probe = (
        f"import json, sys, {modules}; "
        f"print(json.dumps(sorted(m for m in sys.modules if any("
        f"m == p or m.startswith(p + '.') for p in {prefixes!r}))))"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    return json.loads(out)


def run_main(args):
    """``main(args)`` with its stdout captured: ``(exit code, stdout)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


# Each ``repro perf`` run executes the whole smoke suite and its probes,
# so every invocation that more than one test asserts on runs once per
# module.


@pytest.fixture(scope="module")
def perf_text_run():
    """``repro perf`` tiny, text report, nothing written."""
    return run_main(PERF_TINY + ["--no-write"])


@pytest.fixture(scope="module")
def perf_snapshot(tmp_path_factory):
    """``repro perf`` tiny, snapshot written to a fresh path."""
    target = tmp_path_factory.mktemp("perf") / "BENCH_core.json"
    code, _ = run_main(PERF_TINY + ["--out", str(target)])
    return code, target


class TestPerf:
    def test_text_report_without_writing(self, perf_text_run):
        code, out = perf_text_run
        assert code == 0
        assert "bulk_load" in out
        assert "range" in out
        assert "bulk_load_speedup" in out

    def test_writes_snapshot_to_out_path(self, perf_snapshot):
        code, target = perf_snapshot
        assert code == 0
        data = json.loads(target.read_text())
        assert data["suite"] == "core"
        assert data["scale"]["n_points"] == 300
        names = [r["name"] for r in data["results"]]
        assert {"insert", "bulk_load", "exact_match", "range", "knn"} <= set(
            names
        )
        assert data["derived"]["bulk_load_speedup"] > 0

    def test_json_output(self, capsys):
        assert main(
            PERF_TINY + ["--no-write", "--format", "json", "--only", "exact_match"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in data["results"]] == ["exact_match"]

    def test_columnar_lane_reports_oracle_equal(self, capsys):
        assert main(
            PERF_TINY + ["--no-write", "--layout", "columnar", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scale"]["layout"] == "columnar"
        block = data["columnar"]
        assert block["oracle"]["equal"] is True
        assert block["oracle"]["exact_equal"] is True
        assert block["oracle"]["range_equal"] is True
        assert block["oracle"]["knn_equal"] is True
        assert block["speedups"]["exact_match"] > 0
        assert set(block["lanes"]) == {"object", "columnar"}

    def test_columnar_block_rendered_in_text(self, perf_text_run):
        code, out = perf_text_run
        assert code == 0
        assert "columnar" in out
        assert "layout oracle" in out
        assert "EQUAL" in out

    def test_baseline_comparison(self, capsys, perf_snapshot):
        code, snapshot = perf_snapshot
        assert code == 0
        assert main(
            PERF_TINY + ["--no-write", "--baseline", str(snapshot)]
        ) == 0
        out = capsys.readouterr().out
        assert "vs baseline" in out
        assert "speedup" in out


    @pytest.mark.parametrize("kind", BAD_SNAPSHOTS)
    def test_unloadable_baseline_exits_2(self, capsys, tmp_path, kind):
        baseline = bad_snapshot(tmp_path, kind)
        args = PERF_TINY + ["--no-write", "--baseline", str(baseline)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_probe_failure_fails_the_run(self, capsys, monkeypatch):
        # A diverged layout oracle is a correctness bug: the columnar
        # probe's failures() must turn it into exit code 1.
        import dataclasses

        from repro.perf import SuiteResult, default_path, registry

        block = SuiteResult.load(default_path("core")).probes["columnar"]
        block["oracle"] = dict(block["oracle"], equal=False, knn_equal=False)
        stub = dataclasses.replace(
            registry._PROBES["columnar"], run=lambda scale: block
        )
        monkeypatch.setitem(registry._PROBES, "columnar", stub)
        assert main(PERF_TINY + ["--no-write", "--only", "exact_match"]) == 1
        err = capsys.readouterr().err
        assert "oracle DIVERGED" in err and "knn_equal" in err


#: Every subcommand's options and their defaults (positionals by dest).
_WORKLOAD = {
    "--workload": "uniform", "--dims": 2, "--seed": 0,
    "--data-capacity": 16, "--fanout": 16,
}
_POLICY = {"--policy": "scaled"}
COMMAND_OPTIONS = {
    "figures": {"--fanout": 24, "--integer": False},
    "thresholds": {"--fanouts": [24, 120], "--page-bytes": 1024},
    "perf": {
        "--scale": "full", "--suite": "core", "--n": None,
        "--repeats": None, "--warmup": None, "--seed": None,
        "--layout": None, "--only": None, "--format": "text",
        "--out": None, "--no-write": False, "--baseline": None,
    },
    "explain": {
        **_WORKLOAD, **_POLICY, "--n": 2000, "--point": None,
        "--rect": None, "--knn": None, "--k": 3, "--format": "text",
        "--max-rows": 20,
    },
    "trace": {
        **_WORKLOAD, **_POLICY, "--n": 2000, "--out": None,
        "--ring": 65536, "--input": None, "--kind": None, "--stats": False,
    },
    "doctor": {
        **_WORKLOAD, **_POLICY, "--n": 10_000, "--churn": 0.0,
        "--every": 256, "--height-slack": 1, "--format": "text",
        "--series-out": None, "--bench": None,
    },
    "top": {
        **_WORKLOAD, **_POLICY, "--n": 5_000, "--buffer": 256,
        "--ops": None, "--refresh": 1.0, "--once": False,
        "--slow-ms": 10.0, "--slow-pages": None, "--slow-out": None,
        "--prom-out": None, "--metrics-out": None, "--metrics-every": 1000,
    },
    "recover": {
        **_WORKLOAD, "--n": 2000, "directory": None, "--format": "text",
        "--trace": None, "--build": False, "--fault": None,
        "--churn": 0.0, "--sync": "commit",
    },
    "serve": {
        **_WORKLOAD, "--n": 10_000, "--host": "127.0.0.1", "--port": 8077,
        "--layout": "columnar", "--durable": None, "--sync": "os",
    },
    "lint": {"lint_args": None},
    "demo": {
        **_WORKLOAD, **_POLICY, "--n": 10_000, "--show-tree": 0,
        "--show-partition": False,
    },
    "compare": {
        **_WORKLOAD, "--n": 10_000,
        "--structures": ["bv", "kdb", "bang", "lsd", "zorder"],
    },
}


def subcommands():
    """The subcommand parsers of ``repro``, by name."""
    return next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices


class TestParser:
    def test_every_subcommand_is_pinned(self):
        assert set(subcommands()) == set(COMMAND_OPTIONS)

    @pytest.mark.parametrize("name", sorted(COMMAND_OPTIONS))
    def test_option_set_and_defaults(self, name):
        options = {
            "/".join(action.option_strings) or action.dest: action.default
            for action in subcommands()[name]._actions
            if not isinstance(action, argparse._HelpAction)
        }
        assert options == COMMAND_OPTIONS[name]

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--workload", "bogus"])


EXPLAIN_TINY = [
    "explain",
    "--n", "400",
    "--data-capacity", "4",
    "--fanout", "4",
]

TRACE_TINY = [
    "trace",
    "--n", "400",
    "--data-capacity", "4",
    "--fanout", "4",
]


class TestExplain:
    def test_point_text_report(self, capsys):
        assert main(EXPLAIN_TINY + ["--point", "0.5", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("EXPLAIN point")
        assert "pages touched:" in out

    def test_rect_json_report(self, capsys):
        assert main(
            EXPLAIN_TINY
            + ["--rect", "0.2", "0.2", "0.6", "0.6", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "range"
        assert data["pages_touched"] > 0
        assert data["result"]["records"] > 0

    def test_knn_report(self, capsys):
        assert main(EXPLAIN_TINY + ["--knn", "0.5", "0.5", "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN knn" in out
        assert "neighbours=5" in out

    def test_requires_exactly_one_query(self, capsys):
        assert main(EXPLAIN_TINY) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(
            EXPLAIN_TINY + ["--point", "0.5", "0.5", "--knn", "0.1", "0.1"]
        ) == 2

    def test_rect_arity_checked(self, capsys):
        assert main(EXPLAIN_TINY + ["--rect", "0.1", "0.2", "0.9"]) == 2
        assert "--rect needs 4 floats" in capsys.readouterr().err


class TestTrace:
    def test_ring_trace_counts_match_counters(self, capsys):
        assert main(TRACE_TINY) == 0
        out = capsys.readouterr().out
        assert "event kind" in out
        assert "data_split" in out
        assert "op_begin" in out

    def test_jsonl_trace_writes_artifact(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(TRACE_TINY + ["--out", str(path)]) == 0
        capsys.readouterr()
        from repro.obs import read_jsonl

        events = read_jsonl(path)
        assert events
        assert {e.kind for e in events} >= {"op_begin", "op_end", "page_read"}

    def test_traced_recovery_writes_parseable_artifact(self, capsys, tmp_path):
        path = tmp_path / "recover.jsonl"
        assert main(
            ["recover", str(tmp_path / "db"), "--build", "--n", "300",
             "--sync", "os", "--trace", str(path)]
        ) == 0
        capsys.readouterr()
        from repro.obs import read_jsonl

        events = read_jsonl(path)
        kinds = [e.kind for e in events]
        assert kinds[0] == "recovery_begin"
        assert kinds[-1] == "recovery_end"
        replays = [e for e in events if e.kind == "wal_replay"]
        assert len(replays) == events[-1].fields["replayed"] > 0
        wal_seqs = [e.fields["wal_seq"] for e in replays]
        assert wal_seqs == sorted(set(wal_seqs))


DOCTOR_TINY = [
    "doctor",
    "--n", "1500",
    "--data-capacity", "8",
    "--fanout", "8",
]


class TestDoctor:
    def test_healthy_workload_passes_all_guarantees(self, capsys):
        assert main(DOCTOR_TINY) == 0
        out = capsys.readouterr().out
        assert "occupancy" in out
        assert "height" in out
        assert "no_cascade" in out
        assert "PASS" in out
        assert "audit" in out

    def test_churn_workload_with_json_format(self, capsys):
        assert main(
            DOCTOR_TINY + ["--churn", "0.3", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["audit"]["clean"] is True
        assert data["health"]["ok"] is True
        assert set(data["health"]["verdicts"]) == {
            "occupancy", "height", "no_cascade",
        }
        assert data["exit_code"] == 0

    def test_columnar_layout_passes_all_guarantees(self, capsys):
        # Columnar is the default: doctor no longer takes --layout.
        assert main(DOCTOR_TINY + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["health"]["ok"] is True
        assert data["audit"]["clean"] is True
        assert data["exit_code"] == 0

    def test_series_out_writes_columnar_artifact(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        assert main(
            DOCTOR_TINY + ["--every", "100", "--series-out", str(path)]
        ) == 0
        record = json.loads(path.read_text())
        series = record["timeseries"]
        assert series["type"] == "timeseries"
        assert series["ops"]
        columns = series["metrics"]
        assert "monitor.points" in columns
        assert all(
            len(col) == len(series["ops"]) for col in columns.values()
        )

    def test_bench_mode_reads_health_block(self, capsys, tmp_path):
        snapshot = write_snapshot(tmp_path / "BENCH_test.json", health={
            "ok": True,
            "verdicts": {
                "occupancy": "ok",
                "height": "ok",
                "no_cascade": "ok",
            },
        })
        assert main(["doctor", "--bench", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "[OK] occupancy" in out

    def test_bench_mode_fails_on_unhealthy_block(self, capsys, tmp_path):
        snapshot = write_snapshot(
            tmp_path / "BENCH_test.json",
            health={"ok": False, "verdicts": {"height": "violation"}},
        )
        assert main(["doctor", "--bench", str(snapshot)]) == 1

    def test_bench_mode_without_health_block_exits_2(self, capsys, tmp_path):
        snapshot = write_snapshot(tmp_path / "BENCH_test.json")
        assert main(["doctor", "--bench", str(snapshot)]) == 2
        assert "no health block" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", BAD_SNAPSHOTS)
    def test_bench_mode_on_unloadable_snapshot_exits_2(
        self, capsys, tmp_path, kind
    ):
        snapshot = bad_snapshot(tmp_path, kind)
        assert main(["doctor", "--bench", str(snapshot)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bench_mode_on_committed_snapshot(self, capsys):
        from repro.perf import default_path

        assert main(["doctor", "--bench", str(default_path("core"))]) == 0
        assert "[OK] no_cascade" in capsys.readouterr().out


class TestErrorEdge:
    """A ``ReproError`` from user input is one stderr line and exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            EXPLAIN_TINY + ["--point", "0.5"],
            ["doctor", "--n", "200", "--churn", "1.5"],
            ["thresholds", "--fanouts", "0"],
            ["top", "--once", "--n", "200", "--metrics-out", "{missing}"],
            ["doctor", "--n", "200", "--series-out", "{missing}"],
            ["top", "--once", "--n", "200", "--prom-out", "{missing}"],
            ["perf", "--scale", "smoke", "--only", "insert",
             "--out", "{missing}"],
        ],
        ids=[
            "explain-arity", "doctor-churn", "thresholds-fanout",
            "top-metrics-out", "doctor-series-out", "top-prom-out",
            "perf-out",
        ],
    )
    def test_user_input_error_exits_2_without_traceback(
        self, capsys, tmp_path, argv
    ):
        missing = str(tmp_path / "no-such-dir" / "x.jsonl")
        argv = [missing if arg == "{missing}" else arg for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_recover_of_missing_directory_creates_nothing(
        self, capsys, tmp_path
    ):
        target = tmp_path / "typo2"
        assert main(["recover", str(target)]) == 1
        assert "holds no durable store" in capsys.readouterr().err
        assert not target.exists()
        # The mistyped path stays free for a later build.
        assert main(["recover", str(target), "--build", "--n", "200"]) == 0


class TestDefaultLayout:
    """Every product entry point builds columnar trees by default."""

    def test_product_commands_run_columnar(self, capsys, monkeypatch, tmp_path):
        from repro.core.tree import BVTree

        layouts = []
        init = BVTree.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            layouts.append(self.layout)

        monkeypatch.setattr(BVTree, "__init__", spy)
        assert main(DOCTOR_TINY) == 0
        assert main(EXPLAIN_TINY + ["--point", "0.5", "0.5"]) == 0
        assert main(
            ["top", "--once", "--n", "400", "--data-capacity", "4",
             "--fanout", "4"]
        ) == 0
        assert "repro top — layout columnar" in capsys.readouterr().out
        assert main(TRACE_TINY + ["--stats"]) == 0
        assert main(
            ["recover", str(tmp_path / "db"), "--build", "--n", "300"]
        ) == 0
        # doctor, explain, top, trace, then recover's build and rebuild.
        assert len(layouts) == 6
        assert set(layouts) == {"columnar"}

    @pytest.mark.parametrize("command", ["doctor", "top"])
    def test_layout_option_removed(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--layout", "object"])

    def test_serve_keeps_layout_option_defaulting_to_columnar(self):
        assert build_parser().parse_args(["serve"]).layout == "columnar"
        args = build_parser().parse_args(["serve", "--layout", "columnar"])
        assert args.layout == "columnar"
        args = build_parser().parse_args(["serve", "--layout", "object"])
        assert args.layout == "object"
