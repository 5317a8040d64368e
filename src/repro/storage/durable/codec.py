"""Serialisation of page contents for the durable backend.

The in-memory :class:`~repro.storage.pager.PageStore` holds *live
objects* — :class:`~repro.core.node.DataPage`,
:class:`~repro.core.node.IndexNode`, or ``None`` for a freshly
allocated page.  The durable backend must put those on disk and get the
same objects back after a crash, so this module defines a small JSON
content codec:

========  ============================================================
``k``     payload
========  ============================================================
``data``  columnar record arrays: ``p`` (bit paths), ``v`` (values),
          ``pts`` (all coordinates as little-endian IEEE-754 doubles,
          hex-encoded) and ``d`` (dimensionality)
``index`` ``lvl`` (index level) + ``entries``: list of
          ``[bit_string, level, page]`` triples
``none``  an allocated-but-unwritten page
``raw``   ``v``: any other JSON-representable content (tests use this)
========  ============================================================

Coordinates travel as ``struct``-packed doubles rather than JSON
numbers: packing sixteen floats is one C call where ``repr`` ing them is
sixteen, and ``<d`` is bit-exact for every double including the ones
JSON cannot spell (infinities, NaN).  Region keys travel as their
canonical bit strings (:meth:`RegionKey.bit_string` /
:meth:`RegionKey.from_bits`); record values stay JSON, which round
-trips floats via ``repr`` (shortest form) bit-for-bit.  The logical
snapshot format in :mod:`repro.storage.snapshot` made the same choices;
this codec differs in being *per page* (the unit of WAL records and
checkpoint slots) rather than per tree.

Besides full images the codec speaks *deltas* for data pages
(:func:`encode_delta_body` / :func:`apply_data_delta`): the difference
between two versions of a page as added/replaced records plus removed
paths.  The durable store logs a delta whenever it has already logged
the page once this incarnation, which turns the WAL hot path from
O(page) to O(change) — the difference between re-encoding sixteen
records per insert and encoding one.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from repro.core.columnar import ColumnarDataPage, ColumnarIndexNode
from repro.core.entry import Entry
from repro.core.node import DataPage, IndexNode
from repro.errors import WalCorruptionError
from repro.geometry.region import RegionKey

__all__ = [
    "apply_data_delta",
    "decode_content",
    "encode_content",
    "encode_delta_body",
]


def _pack_points(
    points: list[tuple[float, ...]],
) -> tuple[int, str]:
    """``(dims, hex)`` of the concatenated coordinate array."""
    if not points:
        return 0, ""
    flat = [coord for point in points for coord in point]
    return len(points[0]), struct.pack(f"<{len(flat)}d", *flat).hex()


def _unpack_points(
    dims: int, raw: str, count: int
) -> list[tuple[float, ...]]:
    """Inverse of :func:`_pack_points` (``count`` points of ``dims``)."""
    if count == 0:
        return []
    try:
        flat = struct.unpack(f"<{dims * count}d", bytes.fromhex(raw))
    except (struct.error, ValueError) as exc:
        raise WalCorruptionError(
            f"undecodable coordinate array: {exc}"
        ) from None
    return [tuple(flat[i * dims : (i + 1) * dims]) for i in range(count)]


def encode_content(content: Any) -> dict[str, Any]:
    """Encode one page's content as a JSON-ready dict."""
    if content is None:
        return {"k": "none"}
    if isinstance(content, ColumnarDataPage):
        # Straight from the columns, byte-identical to the records
        # form below.  The layout tag plus the construction parameters
        # ``d`` cannot carry (an empty page has no points to infer them
        # from) let recovery rebuild the same subclass.
        paths, values, coords = content.columns()
        return {
            "k": "data",
            "d": content.ndim if paths else 0,
            "p": paths,
            "v": values,
            "pts": coords.hex(),
            "c": 1,
            "nd": content.ndim,
            "pb": content.path_bits,
        }
    if isinstance(content, DataPage):
        records = content.records
        paths = list(records)
        dims, pts = _pack_points([records[p][0] for p in paths])
        return {
            "k": "data",
            "d": dims,
            "p": paths,
            "v": [records[p][1] for p in paths],
            "pts": pts,
        }
    if isinstance(content, IndexNode):
        payload = {
            "k": "index",
            "lvl": content.index_level,
            "entries": [
                [entry.key.bit_string(), entry.level, entry.page]
                for entry in content.entries
            ],
        }
        if isinstance(content, ColumnarIndexNode):
            payload["c"] = 1
            payload["nd"] = content.ndim
            payload["res"] = content.resolution
            payload["pb"] = content.path_bits
        return payload
    return {"k": "raw", "v": content}


def decode_content(data: dict[str, Any]) -> Any:
    """Rebuild a page's content from its :func:`encode_content` form."""
    kind = data.get("k")
    if kind == "none":
        return None
    if kind == "data":
        if data.get("c"):
            page: DataPage = ColumnarDataPage(data["nd"], data["pb"])
        else:
            page = DataPage()
        paths = data["p"]
        values = data["v"]
        if len(paths) != len(values):
            raise WalCorruptionError(
                "data-page record arrays disagree on length"
            )
        points = _unpack_points(data["d"], data["pts"], len(paths))
        for path, point, value in zip(paths, points, values):
            page.insert(path, point, value)
        return page
    if kind == "index":
        if data.get("c"):
            node: IndexNode = ColumnarIndexNode(
                data["lvl"],
                ndim=data["nd"],
                resolution=data["res"],
                path_bits=data["pb"],
            )
        else:
            node = IndexNode(data["lvl"])
        for bits, level, page_id in data["entries"]:
            # Through add(), not a raw entries.append: add keeps the
            # node's duplicate-key set (and the columnar side columns)
            # consistent with the entry list.
            node.add(Entry(RegionKey.from_bits(bits), level, page_id))
        return node
    if kind == "raw":
        return data["v"]
    raise WalCorruptionError(f"unknown page content kind {kind!r}")


def encode_delta_body(
    page_id: int,
    txn: int,
    added: list[tuple[int, tuple[tuple[float, ...], Any]]],
    removed: list[int],
) -> bytes:
    """A complete delta-record payload as JSON bytes (the hot path).

    The added/replaced records mirror the ``data`` image shape and the
    removed paths are listed under ``r``.  Semantically this is
    :func:`dumps` of that payload, but the JSON is assembled by hand: one
    insert logs one record with a couple of integers, a short hex
    string and one value, and going through the generic encoder costs
    more than the whole diff.  Only the value list — the one slot
    holding arbitrary caller data — is delegated to :mod:`json`.
    """
    dims, pts = _pack_points([record[0] for _, record in added])
    value_list = [record[1] for _, record in added]
    if all(type(value) is int for value in value_list):
        # Plain ints (the common record value) serialise as themselves;
        # json.dumps is only needed for arbitrary payloads.  ``bool`` is
        # excluded by the exact type check (json spells it differently).
        values = f'[{",".join(map(str, value_list))}]'
    else:
        values = json.dumps(value_list, separators=(",", ":"))
    return (
        f'{{"d":{dims},"dk":1,"id":{page_id}'
        f',"p":[{",".join(str(path) for path, _ in added)}]'
        f',"pts":"{pts}"'
        f',"r":[{",".join(map(str, removed))}]'
        f',"v":{values},"x":{txn}}}'
    ).encode("ascii")


def apply_data_delta(content: Any, payload: dict[str, Any]) -> DataPage:
    """Replay one :func:`encode_delta_body` payload onto ``content``."""
    if not isinstance(content, DataPage):
        raise WalCorruptionError(
            "delta record targets a page that is not a data page "
            f"({type(content).__name__})"
        )
    paths = payload["p"]
    values = payload["v"]
    if len(paths) != len(values):
        raise WalCorruptionError(
            "data-page delta arrays disagree on length"
        )
    points = _unpack_points(payload["d"], payload["pts"], len(paths))
    for path, point, value in zip(paths, points, values):
        content.insert(path, point, value, replace=True)
    for path in payload["r"]:
        if path not in content:
            raise WalCorruptionError(
                f"delta removes path {path} absent from the page"
            )
        content.delete(path)
    return content


def dumps(data: dict[str, Any]) -> bytes:
    """Canonical byte form of a record payload (compact, sorted keys)."""
    return json.dumps(
        data, separators=(",", ":"), sort_keys=True, ensure_ascii=True
    ).encode("ascii")


def loads(raw: bytes) -> dict[str, Any]:
    """Inverse of :func:`dumps`; corruption raises, never propagates."""
    try:
        data = json.loads(raw)
    except (ValueError, UnicodeDecodeError) as exc:
        raise WalCorruptionError(f"undecodable record payload: {exc}") from None
    if not isinstance(data, dict):
        raise WalCorruptionError(
            f"record payload must be an object, got {type(data).__name__}"
        )
    return data
