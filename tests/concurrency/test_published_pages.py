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

from repro.concurrency import BatchAbortedError, TreeService, delete_op, insert_op
from repro.core.entry import Entry
from repro.core.tree import BVTree
from repro.geometry.region import RegionKey
from repro.geometry.space import DataSpace
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


def key(bits):
    return RegionKey(len(bits), int(bits, 2) if bits else 0)


def buddy_tree(layout, store=None, deferred=None):
    """A hand-built 1-D tree of height 3 in which a delete merges buddies.

    Blocks are bit prefixes of x: ``00`` is [0, 1/4), ``000`` is
    [0, 1/8), ``01`` is [1/4, 1/2).  The level-1 regions ``00`` and
    ``01`` straddle the level-2 regions ``000`` and ``010``, so they sit
    as guards in the root, and the whole-space level-1 region is the
    only native of its level-2 node.  Merging into that region would
    move it out of its node and leave the node empty, and each hole
    (``0000``, ``0100``) is its own node's only native, so an underflow
    in ``00`` at level 0 or level 1 falls through to the buddy merge of
    ``00`` with ``01``.

    With ``deferred`` set to a level, the tree is as a merge deferred by
    an earlier delete leaves it: the level's region ``00`` underflows
    (an empty data page, or a fanout whose floor is above the node's
    two natives) and waits in the retry set, so the next delete
    anywhere merges it without having touched its page first.
    """
    space = DataSpace.unit(1, resolution=8)
    tree = BVTree(
        space,
        data_capacity=4,
        fanout=14 if deferred == 1 else 4,
        store=store,
        layout=layout,
    )

    def data(*xs):
        page = tree.make_data_page()
        for x in xs:
            page.insert(space.point_path((x,)), (x,), x)
        return tree.alloc_data_page(page)

    def node(level, *entries):
        return tree.alloc_index_node(
            tree.make_index_node(
                level, [Entry(key(bits), lv, page) for bits, lv, page in entries]
            )
        )

    whole = node(2, ("", 1, node(1, ("", 0, data(0.75, 0.875)))))
    low = node(2, ("0000", 1, node(1, ("0000", 0, data(0.01, 0.03)))))
    high = node(2, ("0100", 1, node(1, ("0100", 0, data(0.26, 0.28)))))
    left = node(
        1,
        ("00", 0, data() if deferred == 0 else data(0.2)),
        ("000", 0, data(0.1)),
    )
    right = node(1, ("01", 0, data(0.4, 0.45)), ("010", 0, data(0.33, 0.35)))
    tree.adopt(
        node(
            3,
            ("", 2, whole),
            ("000", 2, low),
            ("010", 2, high),
            ("00", 1, left),
            ("01", 1, right),
        )
    )
    if deferred is not None:
        tree.merge_retry.add((deferred, key("00")))
        tree.stats.deferred_merges += 1
    tree.check(check_owners=True)
    return tree


@pytest.mark.parametrize(
    ("deferred", "point", "level"),
    [(None, 0.2, 0), (None, 0.1, 1), (0, 0.875, 0), (1, 0.875, 1)],
    ids=["data-level", "index-level", "data-deferred", "index-deferred"],
)
@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_buddy_merge_leaves_published_pages_alone(
    layout, durable, deferred, point, level, tmp_path
):
    store = DurableStore(tmp_path, sync="os") if durable else None
    tree = buddy_tree(layout, store, deferred)
    items = sorted(p for (p,), _ in tree.items())
    assert {key("00"), key("01")} <= tree.keys[level].keys()
    service = TreeService(tree)
    pins = PinnedPages()
    pins.pin(service)
    service.delete((point,))
    pins.pin(service)
    pins.recheck()
    # The halves became their parent block.
    assert key("0") in tree.keys[level]
    assert not {key("00"), key("01")} & tree.keys[level].keys()
    tree.check(check_owners=True)
    items.remove(point)
    assert sorted(p for (p,), _ in service.snapshot().items()) == items
    if durable:
        store.close(checkpoint=False)
