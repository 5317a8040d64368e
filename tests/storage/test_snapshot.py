"""Tests for JSON snapshot persistence."""

import io
import json
import random

import pytest

from repro.errors import ReproError
from repro.core.tree import BVTree
from repro.geometry.space import DataSpace
from repro.storage.snapshot import dump_tree, dumps_tree, load_tree, loads_tree
from tests.conftest import make_points


@pytest.fixture
def populated(unit2):
    return populate(BVTree(unit2, data_capacity=6, fanout=6))


@pytest.fixture
def populated_object(unit2):
    return populate(BVTree(unit2, data_capacity=6, fanout=6, layout="object"))


def populate(tree):
    for i, p in enumerate(make_points(700, 2, seed=81)):
        tree.insert(p, i, replace=True)
    return tree


class TestRoundTrip:
    def test_records_survive(self, populated):
        clone = loads_tree(dumps_tree(populated))
        assert len(clone) == len(populated)
        for point, value in populated.items():
            assert clone.get(point) == value

    def test_structure_survives(self, populated):
        clone = loads_tree(dumps_tree(populated))
        original = populated.tree_stats()
        restored = clone.tree_stats()
        assert restored.height == original.height
        assert restored.data_pages == original.data_pages
        assert restored.index_nodes == original.index_nodes
        assert restored.total_guards == original.total_guards
        assert sorted(restored.data_occupancies) == sorted(
            original.data_occupancies
        )

    def test_clone_is_independent_and_mutable(self, populated):
        clone = loads_tree(dumps_tree(populated))
        clone.insert((0.987654, 0.123456), "fresh")
        assert clone.contains((0.987654, 0.123456))
        assert not populated.contains((0.987654, 0.123456))
        points = [p for p, _ in clone.items()][:100]
        for p in points:
            clone.delete(p)
        clone.check(check_occupancy=False)

    def test_search_guarantee_preserved(self, populated):
        clone = loads_tree(dumps_tree(populated))
        for p in make_points(30, 2, seed=82):
            assert clone.search(p).nodes_visited == clone.height + 1

    def test_file_round_trip(self, populated, tmp_path):
        path = tmp_path / "tree.json"
        with open(path, "w") as fp:
            dump_tree(populated, fp)
        with open(path) as fp:
            clone = load_tree(fp)
        assert len(clone) == len(populated)

    def test_empty_tree(self, unit2):
        tree = BVTree(unit2, data_capacity=4, fanout=4)
        clone = loads_tree(dumps_tree(tree))
        assert len(clone) == 0
        assert clone.height == 0

    def test_custom_space_and_policy(self):
        space = DataSpace([(-10.0, 10.0), (0.0, 5.0)], resolution=14)
        tree = BVTree(
            space, data_capacity=5, fanout=7, policy="uniform", page_bytes=512
        )
        rng = random.Random(83)
        for i in range(300):
            tree.insert((rng.uniform(-10, 10), rng.uniform(0, 5)), i)
        clone = loads_tree(dumps_tree(tree))
        assert clone.space == space
        assert clone.policy.fanout == 7
        assert clone.policy.kind == "uniform"
        assert len(clone) == 300


class TestValidation:
    def test_rejects_wrong_version(self, populated):
        snapshot = json.loads(dumps_tree(populated))
        snapshot["format"] = 99
        with pytest.raises(ReproError):
            loads_tree(json.dumps(snapshot))

    def test_rejects_dangling_entry(self, populated):
        snapshot = json.loads(dumps_tree(populated))
        for page in snapshot["pages"]:
            if page["kind"] == "index":
                page["entries"][0]["page"] = 999_999
                break
        with pytest.raises(ReproError):
            loads_tree(json.dumps(snapshot))

    def test_rejects_missing_root(self, populated):
        snapshot = json.loads(dumps_tree(populated))
        snapshot["root_page"] = 999_999
        with pytest.raises(ReproError):
            loads_tree(json.dumps(snapshot))

    @pytest.mark.parametrize("field", ["height", "count"])
    def test_rejects_header_that_disagrees_with_pages(self, populated, field):
        snapshot = json.loads(dumps_tree(populated))
        snapshot[field] += 1
        with pytest.raises(ReproError):
            loads_tree(json.dumps(snapshot))

    def test_values_must_be_jsonable(self, unit2):
        tree = BVTree(unit2, data_capacity=4, fanout=4)
        tree.insert((0.5, 0.5), object())
        with pytest.raises(TypeError):
            dumps_tree(tree)


class TestColumnarRoundTrip:
    """Snapshots preserve the page layout, not just the records."""

    @pytest.fixture
    def columnar(self, unit2):
        tree = BVTree(unit2, data_capacity=6, fanout=6, layout="columnar")
        for i, p in enumerate(make_points(700, 2, seed=81)):
            tree.insert(p, i, replace=True)
        return tree

    def test_layout_and_records_survive(self, columnar):
        clone = loads_tree(dumps_tree(columnar))
        assert clone.layout == "columnar"
        from repro.core.columnar import ColumnarDataPage

        assert len(clone) == len(columnar)
        for point, value in columnar.items():
            assert clone.get(point) == value
        # The restored pages really are columnar, root down.
        found = clone.search(next(iter(dict(columnar.items()))))
        assert isinstance(clone.store.read(found.entry.page), ColumnarDataPage)

    def test_structure_identical_to_object_clone(self, columnar):
        clone = loads_tree(dumps_tree(columnar))
        original = columnar.tree_stats()
        restored = clone.tree_stats()
        assert restored.height == original.height
        assert restored.data_pages == original.data_pages
        assert restored.index_nodes == original.index_nodes
        assert restored.total_guards == original.total_guards
        clone.check(check_owners=True, check_occupancy=False)

    def test_clone_stays_mutable(self, columnar):
        clone = loads_tree(dumps_tree(columnar))
        clone.insert((0.987654, 0.123456), "fresh")
        assert clone.contains((0.987654, 0.123456))
        for p in [p for p, _ in clone.items()][:100]:
            clone.delete(p)
        clone.check(check_occupancy=False)

    def test_object_snapshots_still_load_as_object(self, populated_object):
        populated = populated_object
        snapshot = json.loads(dumps_tree(populated))
        assert snapshot["layout"] == "object"
        # A pre-layout snapshot (older writer) defaults to object.
        del snapshot["layout"]
        clone = loads_tree(json.dumps(snapshot))
        assert clone.layout == "object"
        assert len(clone) == len(populated)
