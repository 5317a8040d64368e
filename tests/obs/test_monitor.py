"""Tests for the guarantee monitor's incremental structural gauges.

The monitor's contract is *exactness*: fed the structural event stream,
its O(1)-per-event bookkeeping must reproduce what a fresh full-sweep
``tree_stats()`` reports, field for field.  Every test here drives a
real tree and checks either a specific gauge or the audit as a whole;
the property tests in ``tests/properties/test_monitor_props.py`` widen
the workload space.
"""

import pytest

from repro.core.tree import BVTree
from repro.obs import GuaranteeMonitor
from repro.obs.sinks import RingSink
from repro.storage import BufferPool, PageStore
from tests.conftest import make_points


def build(unit2, store=None, **kwargs):
    kwargs.setdefault("data_capacity", 4)
    kwargs.setdefault("fanout", 4)
    return BVTree(unit2, store=store, **kwargs)


class TestLifecycle:
    def test_attach_registers_tap_and_detach_removes_it(self, unit2):
        tree = build(unit2)
        monitor = GuaranteeMonitor(tree)
        assert not tree.tracer.structural
        monitor.attach()
        assert monitor.attached
        assert monitor in tree.tracer.subscribers
        assert tree.tracer.structural
        monitor.detach()
        assert not monitor.attached
        assert monitor not in tree.tracer.subscribers
        assert not tree.tracer.structural

    def test_attach_is_idempotent(self, unit2):
        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        monitor.attach()
        assert tree.tracer.subscribers.count(monitor) == 1
        monitor.detach()

    def test_context_manager_detaches(self, unit2):
        tree = build(unit2)
        with GuaranteeMonitor(tree) as monitor:
            assert monitor.attached
        assert not monitor.attached
        assert not tree.tracer.structural

    def test_detached_monitor_freezes(self, unit2):
        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        for i, point in enumerate(make_points(50, 2, seed=1)):
            tree.insert(point, i, replace=True)
        monitor.detach()
        frozen_pages = dict(monitor.pages_by_level)
        for i, point in enumerate(make_points(50, 2, seed=2)):
            tree.insert(point, i, replace=True)
        assert monitor.pages_by_level == frozen_pages

    def test_attach_mid_life_seeds_from_live_pages(self, unit2):
        """Attaching to a populated tree sweeps once, then stays exact."""
        tree = build(unit2)
        points = make_points(300, 2, seed=3)
        for i, point in enumerate(points[:200]):
            tree.insert(point, i, replace=True)
        monitor = GuaranteeMonitor(tree).attach()
        assert monitor.audit().clean
        for i, point in enumerate(points[200:]):
            tree.insert(point, i, replace=True)
        assert monitor.audit().clean
        monitor.detach()


class TestGauges:
    def test_pages_and_points_track_inserts(self, unit2):
        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        for i, point in enumerate(make_points(100, 2, seed=5)):
            tree.insert(point, i, replace=True)
        assert monitor.points == 100
        assert monitor.height == tree.height
        stats = tree.tree_stats()
        assert monitor.pages_by_level[0] == stats.data_pages
        assert sum(monitor.occupancy(0).values()) == stats.data_pages
        monitor.detach()

    def test_occupancy_histogram_weighted_sum_is_point_count(self, unit2):
        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        for i, point in enumerate(make_points(150, 2, seed=6)):
            tree.insert(point, i, replace=True)
        histogram = monitor.occupancy(0)
        assert sum(size * n for size, n in histogram.items()) == 150
        monitor.detach()

    def test_min_occupancy_root_exemption(self, unit2):
        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        tree.insert((0.5, 0.5), 0)
        # One data page and it is the root: exempt -> None.
        assert monitor.min_occupancy(0, exempt_root=True) is None
        assert monitor.min_occupancy(0, exempt_root=False) == 1
        monitor.detach()

    def test_guard_counts_match_sweep(self, unit2):
        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        for i, point in enumerate(make_points(500, 2, seed=41)):
            tree.insert(point, i, replace=True)
        assert monitor.guards_by_level == tree.tree_stats().guards_by_level
        monitor.detach()

    def test_max_splits_per_op_is_bounded_by_root_path(self, unit2):
        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        for i, point in enumerate(make_points(400, 2, seed=8)):
            tree.insert(point, i, replace=True)
        assert monitor.max_splits_per_op >= 1  # splits happened
        assert monitor.max_splits_per_op <= monitor.max_height_seen + 1
        monitor.detach()

    def test_max_height_seen_is_high_water(self, unit2):
        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        points = make_points(300, 2, seed=9)
        for i, point in enumerate(points):
            tree.insert(point, i, replace=True)
        peak = tree.height
        for point in points[:280]:
            tree.delete(point)
        assert tree.height <= peak
        assert monitor.max_height_seen == peak
        monitor.detach()

    def test_pages_below_excludes_root_and_caps(self, unit2):
        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        for i, point in enumerate(make_points(200, 2, seed=10)):
            tree.insert(point, i, replace=True)
        huge = monitor.pages_below(0, minimum=10**9)
        assert tree.root_page not in huge
        assert monitor.pages_below(0, minimum=10**9, limit=3) == huge[:3]
        monitor.detach()

    def test_publish_writes_monitor_namespace(self, unit2):
        from repro.obs import MetricsRegistry

        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        for i, point in enumerate(make_points(120, 2, seed=11)):
            tree.insert(point, i, replace=True)
        registry = MetricsRegistry()
        monitor.publish(registry)
        assert registry.get("monitor.points").value == 120
        assert registry.get("monitor.height").value == tree.height
        assert registry.get("monitor.pages.l0").value == (
            monitor.pages_by_level[0]
        )
        monitor.detach()

    def test_to_dict_is_json_ready(self, unit2):
        import json

        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        for i, point in enumerate(make_points(80, 2, seed=12)):
            tree.insert(point, i, replace=True)
        data = monitor.to_dict()
        json.dumps(data)  # must not raise
        assert data["points"] == 80
        assert "occupancy_by_level" in data
        monitor.detach()


class TestAudit:
    def test_insert_delete_mix_audits_clean(self, unit2):
        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        points = make_points(600, 2, seed=21)
        for i, point in enumerate(points):
            tree.insert(point, i, replace=True)
        for point in points[:480]:
            tree.delete(point)
        report = monitor.audit()
        assert report.clean, report.drift
        assert bool(report)
        monitor.detach()

    def test_bulk_load_audits_clean(self, unit2):
        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        points = make_points(500, 2, seed=22)
        tree.bulk_load([(p, i) for i, p in enumerate(points)], replace=True)
        report = monitor.audit()
        assert report.clean, report.drift
        monitor.detach()

    def test_audit_behind_buffer_pool(self, unit2):
        pool = BufferPool(PageStore(), capacity=8)
        tree = build(unit2, store=pool)
        monitor = GuaranteeMonitor(tree).attach()
        for i, point in enumerate(make_points(300, 2, seed=23)):
            tree.insert(point, i, replace=True)
        report = monitor.audit()
        assert report.clean, report.drift
        monitor.detach()

    def test_aborted_transactions_audit_clean(self, unit2):
        """An abort puts pages back after the op's own ``op_end``."""
        tree = build(unit2)
        points = make_points(60, 2, seed=1)
        for i, point in enumerate(points[:40]):
            tree.insert(point, i)
        monitor = GuaranteeMonitor(tree).attach()
        before = monitor.to_dict()
        for i, point in enumerate(points[40:]):
            with pytest.raises(RuntimeError):
                with tree.transaction("aborted"):
                    tree.insert(point, i)
                    raise RuntimeError("abort")
        report = monitor.audit()
        assert report.clean, report.drift
        assert monitor.to_dict()["occupancy_by_level"] == (
            before["occupancy_by_level"]
        )
        monitor.detach()

    def test_next_op_after_an_abort_folds_from_the_put_back_pages(
        self, unit2
    ):
        tree = build(unit2)
        points = make_points(60, 2, seed=2)
        monitor = GuaranteeMonitor(tree).attach()
        for i, point in enumerate(points[:40]):
            tree.insert(point, i)
        for i, point in enumerate(points[40:50]):
            with pytest.raises(RuntimeError):
                with tree.transaction("aborted"):
                    tree.insert(point, i)
                    tree.delete(points[i])
                    raise RuntimeError("abort")
            # No audit in between: the next op's op_begin re-derives.
            tree.insert(points[50 + i], i)
            stats = tree.tree_stats()
            assert monitor.pages_by_level == {
                level: len(occ)
                for level, occ in stats.occupancies_by_level.items()
            }
        assert monitor.audit().clean
        monitor.detach()

    def test_audit_reports_drift_when_state_corrupted(self, unit2):
        tree = build(unit2)
        monitor = GuaranteeMonitor(tree).attach()
        for i, point in enumerate(make_points(100, 2, seed=24)):
            tree.insert(point, i, replace=True)
        # Sabotage the incremental state; the audit must notice.
        monitor.guards_by_level[99] = 7
        report = monitor.audit()
        assert not report.clean
        assert any("guards_by_level" in line for line in report.drift)
        monitor.detach()


class TestCoexistence:
    def test_monitor_and_sink_both_receive_structural_events(self, unit2):
        """A tap and an attached sink see the same structural stream."""
        tree = build(unit2)
        ring = RingSink(capacity=1 << 16)
        tree.tracer.subscribe(ring)
        monitor = GuaranteeMonitor(tree).attach()
        for i, point in enumerate(make_points(200, 2, seed=31)):
            tree.insert(point, i, replace=True)
        assert monitor.audit().clean
        kinds = {event.kind for event in ring.events()}
        assert "data_split" in kinds
        monitor.detach()
        tree.tracer.unsubscribe(ring)

    def test_monitored_reads_emit_nothing(self, unit2):
        """Reads on a monitored-but-untraced tree stay silent."""
        tree = build(unit2)
        points = make_points(100, 2, seed=32)
        for i, point in enumerate(points):
            tree.insert(point, i, replace=True)
        monitor = GuaranteeMonitor(tree).attach()
        before = monitor.ops_seen
        for point in points[:50]:
            tree.get(point)
        # Read spans are gated on tracer.enabled, which a tap alone
        # does not raise, so no op_end events reach the monitor.
        assert monitor.ops_seen == before
        monitor.detach()
