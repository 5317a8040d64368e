"""Snapshot persistence: save and load a BV-tree as JSON.

The paged representation serialises naturally: every page is either a
data page (records keyed by bit path) or an index node (level-labelled
entries).  Record values must be JSON-serialisable.  The header is the
tree's :func:`~repro.core.tree.tree_config` record; loading builds an
empty tree from it, copies the pages under fresh ids and hands the root
to :meth:`~repro.core.tree.BVTree.adopt`, which rebuilds the key
registry and reads height and count off the pages.  The snapshot is a
faithful structural copy: heights, page populations, guard placement and
therefore all cost guarantees survive a round trip.

This is deliberately a *logical* format (human-inspectable, versioned),
not a byte-exact page image: the storage engine here is a simulator and
the interesting state is structural.
"""

from __future__ import annotations

import json
from typing import IO, Any

from repro.errors import ReproError
from repro.core.entry import Entry
from repro.core.node import DataPage, IndexNode
from repro.core.tree import BVTree
from repro.geometry.region import RegionKey

FORMAT_VERSION = 1


def _entry_to_json(entry: Entry) -> dict[str, Any]:
    return {
        "key": entry.key.bit_string(),
        "level": entry.level,
        "page": entry.page,
    }


def _page_to_json(page_id: int, content: Any) -> dict[str, Any]:
    if isinstance(content, DataPage):
        return {
            "id": page_id,
            "kind": "data",
            "records": [
                {"point": list(point), "value": value}
                for point, value in content.records.values()
            ],
        }
    if isinstance(content, IndexNode):
        return {
            "id": page_id,
            "kind": "index",
            "index_level": content.index_level,
            "entries": [_entry_to_json(e) for e in content.entries],
        }
    raise ReproError(f"page {page_id} holds unserialisable {type(content).__name__}")


def dump_tree(tree: BVTree, fp: IO[str]) -> None:
    """Write a JSON snapshot of ``tree`` to a text file object."""
    pages = []
    stack = [tree.root_entry()]
    while stack:
        entry = stack.pop()
        content = tree.store.read(entry.page)
        pages.append(_page_to_json(entry.page, content))
        if isinstance(content, IndexNode):
            stack.extend(content.entries)
    snapshot = {
        "format": FORMAT_VERSION,
        **tree.config(),
        "height": tree.height,
        "root_page": tree.root_page,
        "count": tree.count,
        "pages": pages,
    }
    json.dump(snapshot, fp)


def dumps_tree(tree: BVTree) -> str:
    """The JSON snapshot of ``tree`` as a string."""
    import io

    buffer = io.StringIO()
    dump_tree(tree, buffer)
    return buffer.getvalue()


def load_tree(fp: IO[str]) -> BVTree:
    """Rebuild a BV-tree from a snapshot produced by :func:`dump_tree`."""
    snapshot = json.load(fp)
    return _from_snapshot(snapshot)


def loads_tree(text: str) -> BVTree:
    """Rebuild a BV-tree from a snapshot string."""
    return _from_snapshot(json.loads(text))


def _from_snapshot(snapshot: dict[str, Any]) -> BVTree:
    if snapshot.get("format") != FORMAT_VERSION:
        raise ReproError(
            f"unsupported snapshot format {snapshot.get('format')!r}; "
            f"this library reads version {FORMAT_VERSION}"
        )
    tree = BVTree.from_config(snapshot)

    # First pass: materialise pages under fresh ids.
    space = tree.space
    id_map: dict[int, int] = {}
    index_nodes: list[tuple[dict[str, Any], IndexNode]] = []
    for page in snapshot["pages"]:
        if page["kind"] == "data":
            content = tree.make_data_page()
            for record in page["records"]:
                point = tuple(record["point"])
                content.insert(
                    space.point_path(point), point, record["value"], replace=True
                )
            id_map[page["id"]] = tree.alloc_data_page(content)
        elif page["kind"] == "index":
            node = tree.make_index_node(page["index_level"])
            index_nodes.append((page, node))
            id_map[page["id"]] = tree.alloc_index_node(node)
        else:
            raise ReproError(f"unknown page kind {page['kind']!r}")

    # Second pass: wire entries through the id map; adopt rebuilds the
    # registry and reads root, height and count off the pages.
    root_page = snapshot["root_page"]
    if root_page not in id_map:
        raise ReproError("snapshot root page missing from page list")
    for page, node in index_nodes:
        for raw in page["entries"]:
            child = raw["page"]
            if child not in id_map:
                raise ReproError(f"entry references missing page {child}")
            entry = Entry(
                RegionKey.from_bits(raw["key"]), raw["level"], id_map[child]
            )
            node.add(entry)
    tree.adopt(id_map[root_page])
    if (tree.height, tree.count) != (snapshot["height"], snapshot["count"]):
        raise ReproError("snapshot height/count disagree with its pages")
    tree.check(check_occupancy=False, check_justification=False)
    return tree
