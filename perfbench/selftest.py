"""Self-tests of the benchmark's own arithmetic and accounting.

Run from the repository root: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from opstream import Lane, Mix, Oracle, drive, uniform_points, verify_log  # noqa: E402
from run import SPEC, UNITS, WORKLOADS, served_inputs  # noqa: E402
from stats import Tally, TooFewSamples, percentile, self_times  # noqa: E402
from tracing import layer_metrics  # noqa: E402


def op_stream(seed: int, n: int = 3000) -> list[tuple]:
    points = uniform_points(random.Random(seed), 500, set())
    lane = Lane(
        seed,
        Mix(get=0.3, range=0.2, knn=0.1, insert=0.2, delete=0.2),
        {p: i for i, p in enumerate(points[:400])},
        points[400:],
    )
    ops = []
    for _ in range(n):
        op = lane.next_op()
        lane.commit(op)
        ops.append(op)
    return ops


class OpStreamTest(unittest.TestCase):
    def test_same_seed_same_stream(self):
        self.assertEqual(op_stream(7), op_stream(7))
        self.assertEqual(served_inputs("serve_write", 7), served_inputs("serve_write", 7))

    def test_other_seed_other_stream(self):
        self.assertNotEqual(op_stream(7), op_stream(8))
        self.assertNotEqual(served_inputs("serve_read", 7), served_inputs("serve_read", 8))

    def test_points_are_path_deduplicated(self):
        from repro import DataSpace

        from opstream import RESOLUTION

        space = DataSpace.unit(2, resolution=RESOLUTION)
        loaded, extra = served_inputs("serve_write", 3)
        paths = {space.point_path(p) for p in loaded + extra}
        self.assertEqual(len(paths), len(loaded) + len(extra))

    def test_stream_keeps_writes_valid(self):
        live = set(uniform_points(random.Random(5), 500, set())[:400])
        for op in op_stream(5):
            if op[0] == "insert":
                self.assertNotIn(op[1], live)
                live.add(op[1])
            elif op[0] == "delete":
                self.assertIn(op[1], live)
                live.remove(op[1])
            elif op[0] == "get":
                self.assertIn(op[1], live)


class PercentileTest(unittest.TestCase):
    def test_needs_ten_beyond(self):
        self.assertEqual(percentile([float(i) for i in range(1000)], 0.99), 989.0)
        with self.assertRaises(TooFewSamples):
            percentile([float(i) for i in range(999)], 0.99)
        with self.assertRaises(TooFewSamples):
            percentile([1.0] * 19, 0.5)
        self.assertEqual(percentile([3.0, 1.0, 2.0] * 10, 0.5), 2.0)


class ScrapeTest(unittest.TestCase):
    def test_window_mean_counts_only_the_window(self):
        from served import window_mean

        before = "repro_serve_get_pages_sum 15\nrepro_serve_get_pages_count 3\n"
        after = "repro_serve_get_pages_sum 55\nrepro_serve_get_pages_count 11\n"
        self.assertEqual(window_mean(before, after, "repro_serve_get_pages"), 5.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted_once(self):
        spans = [
            (0, "root", 0.0, 10.0, -1, 1),
            (1, "a", 1.0, 4.0, 0, 1),
            (2, "b", 3.0, 6.0, 0, 1),   # overlaps a: covered is [1, 6)
            (3, "c", 9.0, 12.0, 0, 1),  # clipped to the parent's end
            (4, "leaf", 1.5, 2.0, 1, 1),
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(selfs[1], 3.0 - 0.5)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[4], 0.5)


    def test_layer_metrics_window_and_units(self):
        dump = {
            "spans": [
                [0, "tree.bulk_load", 0.0, 1.5, -1, 1],        # set-up, seconds
                [1, "app /v1/get", 10.0, 10.0001, -1, 2],
                [2, "snap.get", 10.00002, 10.00005, 1, 2],
                [3, "geom.point_path", 10.00003, 10.000031, 2, 2],
                [4, "app /v1/get", 20.0, 20.0001, -1, 3],      # after the window
                [5, "app /v1/range", 10.5, 10.5002, -1, 4],
                [6, "snap.range", 10.50005, 10.50015, 5, 4],
            ],
            "ranges": [[6, 45, 3]],
            "gc": [[10.5, 10.502], [30.0, 30.5]],
            "batch_waits": [],
        }
        m = layer_metrics(dump, (9.0, 11.0), [200.0, 400.0])
        self.assertAlmostEqual(m["core.bulk_load_s"], 1.5)
        self.assertAlmostEqual(m["server.app_us.get"], 100.0, places=3)
        # Mean client latency 300 µs, mean in-app time (100 + 200) / 2.
        self.assertAlmostEqual(m["server.http_us"], 150.0, places=3)
        self.assertAlmostEqual(m["core.get_us"], 30.0, places=3)
        self.assertAlmostEqual(m["geometry.point_path_us"], 1.0, places=3)
        self.assertEqual(m["core.range_hits_per_data_page"], 15.0)
        self.assertAlmostEqual(m["runtime.gc_max_pause_ms"], 2.0, places=6)
        self.assertEqual(m["server.batch_wait_us"], 0.0)


class AccountingTest(unittest.TestCase):
    def test_wrong_answers_and_errors_fail(self):
        points = uniform_points(random.Random(1), 50, set())
        lane = Lane(1, Mix(get=1), {p: i for i, p in enumerate(points)})
        calls = []

        def execute(op, keep):
            calls.append(op)
            if len(calls) % 3 == 0:
                return 1.0, False, "error status", False, None
            return 1.0, True, "", False, None

        tally, log = Tally(), []
        drive(execute, lane, tally, log, schedule=["get"] * 30)
        self.assertEqual((tally.attempted, tally.failed), (30, 10))

        oracle = Oracle(points, points)
        lows, highs = (0.0, 0.0), (0.5, 0.5)
        right = sorted(oracle.range_points(lows, highs))
        log = [("q", ("range", lows, highs), right), ("q", ("range", lows, highs), right[1:])]
        verify_log(oracle, log, tally)
        self.assertEqual((tally.attempted, tally.failed), (30, 11))

    def test_oracle_follows_writes(self):
        points = uniform_points(random.Random(2), 200, set())
        oracle = Oracle(points, points[:100])
        q = (0.5, 0.5)
        answer = sorted(points[:100], key=lambda p: (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)[:4]
        tally = Tally()
        log = [("q", ("knn", q, 4), answer), ("w", "delete", answer[0]), ("q", ("knn", q, 4), answer)]
        self.assertEqual(verify_log(oracle, log, tally), 2)
        self.assertEqual(tally.failed, 1)


class WriteCountTest(unittest.TestCase):
    def test_group_commits_count_every_op(self):
        """Two clients through the write batcher: ops, not groups, are counted."""
        from repro import BVTree, DataSpace
        from repro.concurrency import TreeService
        from repro.server import ServerHandle, ServingApp, WriteBatcher
        from repro.storage import ColumnarStore

        from opstream import RESOLUTION
        from client import Connection
        from served import _run_clients

        points = uniform_points(random.Random(3), 600, set())
        tree = BVTree(DataSpace.unit(2, resolution=RESOLUTION), store=ColumnarStore(), layout="columnar")
        tree.bulk_load([(p, i) for i, p in enumerate(points[:400])])
        service = TreeService(tree)
        batcher = WriteBatcher(service)
        try:
            with ServerHandle(ServingApp(service, batcher=batcher)) as handle:
                lanes = [
                    Lane(c, Mix(insert=1, delete=1),
                         {points[j]: j for j in range(c, 400, 2)},
                         points[400 + c::2], first_value=c << 32)
                    for c in range(2)
                ]
                conns = [Connection(handle.port) for _ in lanes]
                tally = _run_clients(conns, lanes, [], schedule=["insert", "delete"] * 40)
                for conn in conns:
                    conn.close()
        finally:
            batcher.close()
        self.assertEqual(tally.failed, 0, tally.failures)
        writes = tally.count("insert") + tally.count("delete")
        self.assertEqual(writes, 160)
        self.assertEqual(batcher.stats.ops, writes)
        self.assertLess(batcher.stats.batches, writes)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_runner(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(set(UNITS), set(names))
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])


if __name__ == "__main__":
    unittest.main()
