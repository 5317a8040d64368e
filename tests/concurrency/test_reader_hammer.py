"""Eight reader threads on one shared tree: the read path stays pure.

Readers of one ``PageStore``-backed tree share every page and the key
registry.  This suite is the regression net for anything the read path
might start mutating under the hood: identical answers from every
thread and no exceptions.
"""

import threading

import pytest

from repro.core.tree import BVTree
from repro.storage import PageStore

from tests.concurrency.conftest import distinct_points, make_space

N_THREADS = 8
ROUNDS = 40


def _build_tree(layout):
    space = make_space(resolution=8)
    tree = BVTree(
        space, data_capacity=4, fanout=4, store=PageStore(), layout=layout
    )
    points = distinct_points(300, space, seed=13)
    tree.bulk_load(((p, i) for i, p in enumerate(points)), replace=True)
    return tree, points


def _hammer(tree, points, errors, answers, slot):
    try:
        local = []
        for round_no in range(ROUNDS):
            for point in points[slot::N_THREADS]:
                local.append(tree.get(point))
            result = tree.range_query((0.2, 0.2), (0.8, 0.8))
            local.append(len(result.records))
            neighbours = tree.nearest(points[slot], k=5)
            local.append(
                tuple(tuple(n.point) for n in neighbours.neighbours)
            )
            # Format keys too, as traced descents and EXPLAIN do.
            locate = tree.search(points[(slot + round_no) % len(points)])
            locate.entry.key.bit_string()
        answers[slot] = local
    except BaseException as exc:  # noqa: BLE001 - recorded and re-raised
        errors.append(exc)


@pytest.mark.parametrize("layout", ["object", "columnar"])
class TestReaderHammer:
    def test_eight_readers_agree_and_nothing_breaks(self, layout):
        tree, points = _build_tree(layout)
        errors: list[BaseException] = []
        answers: dict[int, list] = {}
        threads = [
            threading.Thread(
                target=_hammer, args=(tree, points, errors, answers, slot)
            )
            for slot in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        # Every thread's answers must equal a single-threaded replay.
        for slot in range(N_THREADS):
            expected = []
            for round_no in range(ROUNDS):
                for point in points[slot::N_THREADS]:
                    expected.append(tree.get(point))
                result = tree.range_query((0.2, 0.2), (0.8, 0.8))
                expected.append(len(result.records))
                neighbours = tree.nearest(points[slot], k=5)
                expected.append(
                    tuple(tuple(n.point) for n in neighbours.neighbours)
                )
            assert answers[slot] == expected
