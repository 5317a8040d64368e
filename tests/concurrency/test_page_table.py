"""The committed page table: a dict model, persistence and O(dirty) commits.

:class:`PageTable` is what every published version holds, so it must
behave exactly like the page-id -> payload dict it replaced, every
earlier table must survive later commits untouched, and a commit must
copy only the chunks holding dirty ids — checked here structurally, by
counting chunks shared by identity, never by timing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import PageTable
from repro.concurrency.snapshots import CHUNK_BITS

from tests.concurrency.conftest import distinct_points, make_space
from tests.concurrency.lockstep import build_service

# Ids over a few chunks, so puts and drops collide inside chunks and
# chunks empty out and come back.
_PID = st.integers(min_value=0, max_value=4 << CHUNK_BITS)
_COMMIT = st.tuples(
    st.dictionaries(_PID, st.integers(), max_size=12),
    st.lists(_PID, max_size=12),
)


def assert_matches(table, model):
    assert len(table) == len(model)
    assert sorted(table) == sorted(model)
    for pid in range(-1, (5 << CHUNK_BITS) + 1):
        assert (pid in table) == (pid in model)
    for pid, content in model.items():
        assert table[pid] == content


def commit(model, puts, drops):
    model = {**model, **puts}
    for pid in drops:
        model.pop(pid, None)
    return model


class TestAgainstDictModel:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(_PID, st.integers()), st.lists(_COMMIT, max_size=8))
    def test_commits_agree_with_a_dict_and_never_touch_older_tables(
        self, initial, commits
    ):
        tables = [PageTable.from_items(initial.items())]
        models = [initial]
        for puts, drops in commits:
            tables.append(tables[-1].updated(puts, drops))
            models.append(commit(models[-1], puts, drops))
            assert_matches(tables[-1], models[-1])
        for table, model in zip(tables, models):
            assert_matches(table, model)
            assert all(table.chunks.values())


class TestChunkEdges:
    def test_ids_around_a_chunk_boundary(self):
        table = PageTable.from_items([(63, "a"), (64, "b"), (65, "c")])
        assert sorted(table.chunks) == [0, 1]
        assert table.chunks[0] == {63: "a"}
        assert table.chunks[1] == {64: "b", 65: "c"}
        assert [table[pid] for pid in (63, 64, 65)] == ["a", "b", "c"]
        assert 62 not in table and 66 not in table

    def test_emptied_chunks_leave_the_spine(self):
        table = PageTable.from_items([(63, "a"), (64, "b"), (65, "c")])
        dropped = table.updated({}, [64, 65])
        assert sorted(dropped.chunks) == [0]
        assert len(dropped) == 1
        assert not dropped.updated({}, [63]).chunks
        # Drops of ids the table never held change nothing.
        assert dropped.updated({}, [64, 1000]).chunks == dropped.chunks

    def test_a_chunk_refilled_in_the_same_commit_stays(self):
        table = PageTable.from_items([(64, "b")])
        refilled = table.updated({65: "c"}, [64])
        assert refilled.chunks == {1: {65: "c"}}
        assert len(refilled) == 1


class TestODirtyCommit:
    def test_one_page_update_shares_every_other_chunk(self):
        table = PageTable.from_items((pid, pid) for pid in range(1000))
        after = table.updated({130: "x"})
        unshared = [k for k in after.chunks if after.chunks[k] is not table.chunks[k]]
        assert unshared == [130 >> CHUNK_BITS]
        assert table[130] == 130 and after[130] == "x"

    def test_one_page_commit_through_the_service(self, layout):
        space = make_space()
        service, _ = build_service(layout, space=space)
        points = distinct_points(1500, space, seed=5)
        service.bulk_load([(p, i) for i, p in enumerate(points)])
        old = service.snapshot().version.pages
        assert len(old.chunks) > 4
        # A replacing insert of an existing key rewrites one data page.
        service.insert(points[0], "new", replace=True)
        new = service.snapshot().version.pages
        changed = {
            pid for pid in set(old) | set(new)
            if pid not in old or pid not in new or old[pid] is not new[pid]
        }
        assert len(changed) == 1
        shared = [k for k in new.chunks if new.chunks[k] is old.chunks.get(k)]
        assert len(shared) == len(new.chunks) - 1
        assert len(new) == len(old) == service.stats()["committed_pages"]
