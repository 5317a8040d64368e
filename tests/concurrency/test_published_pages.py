"""Published pages never change.

The store copies a page on its first write in a transaction, so the
live store and every published version share each page object no write
has replaced since.  These tests pin every version a churn publishes,
record a digest of each page object it holds, and re-check every
recorded object after each later publication: a core site that changed
a page it only ``read`` would change a pinned page and fail here (or
trip the store's write guard first).
"""

import random

import pytest

from repro.concurrency import BatchAbortedError, delete_op, insert_op
from repro.core.tree import BVTree
from repro.storage.durable import codec
from repro.storage.durable.store import DurableStore

from tests.concurrency.conftest import distinct_points, make_space
from tests.concurrency.lockstep import build_service

#: A point no churn inserts: deleting it fails inside a group or batch.
ABSENT = (0.999, 0.001)


def digest(content):
    return codec.dumps(codec.encode_content(content))


class PinnedPages:
    """Every page object of every pinned version, with its digest."""

    def __init__(self):
        self.objects = {}
        self.versions = []

    def pin(self, service):
        version = service.snapshot().version
        self.versions.append(version)
        for page_id in version.pages:
            content = version.pages[page_id]
            if id(content) not in self.objects:
                self.objects[id(content)] = (page_id, content, digest(content))

    def recheck(self):
        for page_id, content, recorded in self.objects.values():
            assert digest(content) == recorded, (
                f"page {page_id} changed after it was published"
            )


def churn(service, seed):
    """Inserts and deletes, groups holding a failing op and aborted
    batches, pinning every version and re-checking all pins."""
    space = service.tree.space
    points = distinct_points(260, space, seed=seed)
    live = list(points[:60])
    spare = list(points[60:])
    pins = PinnedPages()
    service.bulk_load([(p, i) for i, p in enumerate(live)])
    pins.pin(service)
    rng = random.Random(seed)
    for step in range(240):
        lsn = service.lsn
        roll = rng.random()
        if roll < 0.15:
            ops = []
            for _ in range(4):
                if spare and rng.random() < 0.5:
                    point = spare.pop()
                    live.append(point)
                    ops.append(insert_op(point, step))
                else:
                    ops.append(delete_op(live.pop(rng.randrange(len(live)))))
            ops.insert(rng.randrange(len(ops) + 1), delete_op(ABSENT))
            outcomes, _ = service.apply_ops(ops)
            assert sum(not ok for ok, _ in outcomes) == 1
        elif roll < 0.2:
            batch = [
                insert_op(spare[-1], "x"),
                delete_op(live[rng.randrange(len(live))]),
                delete_op(ABSENT),
            ]
            with pytest.raises(BatchAbortedError):
                service.apply_batch(batch)
        elif spare and (roll < 0.6 or len(live) < 20):
            point = spare.pop()
            live.append(point)
            service.insert(point, step)
        else:
            service.delete(live.pop(rng.randrange(len(live))))
        if service.lsn != lsn:
            pins.pin(service)
        pins.recheck()
    assert not service.poisoned
    assert sorted(p for p, _ in service.snapshot().items()) == sorted(
        tuple(p) for p in live
    )
    return pins


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_published_pages_never_change(layout, durable, tmp_path):
    tree = None
    if durable:
        tree = BVTree(
            make_space(),
            data_capacity=4,
            fanout=4,
            store=DurableStore(tmp_path, sync="os"),
            layout=layout,
        )
    service, _ = build_service(layout, tree=tree)
    pins = churn(service, seed=5)
    stats = service.tree.stats
    # The churn reached every kind of structural change.
    for counter in (
        "data_splits",
        "index_splits",
        "promotions",
        "demotions",
        "merges",
    ):
        assert getattr(stats, counter) > 0, counter
    assert len(pins.versions) > 100
    service.tree.check(check_owners=True)
    if durable:
        service.tree.store.close(checkpoint=False)
