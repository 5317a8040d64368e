"""The serving application: routes, JSON contracts, error mapping.

The app is transport-free: :meth:`ServingApp.handle` maps ``(method,
path, body bytes)`` to a :class:`Response`, so the contract tests drive
it directly — no socket, no serving loop — and the HTTP layer
(:mod:`repro.server.http`) is a thin shell around the same method.
With a :class:`~repro.server.batch.WriteBatcher` attached, a single-op
write is the one exception: ``handle`` queues it and returns a
:class:`Pending` reply, which settles when the batcher commits it.

Error mapping (asserted by the contract tests)::

    KeyNotFoundError          -> 404   the point has no record
    DuplicateKeyError         -> 409   insert without replace collided
    GeometryError (+subtypes) -> 400   malformed point/box/k
    BatchAbortedError         -> maps its cause, with the failing index
    TreeInvariantError        -> 500   the index broke an invariant
    StorageError              -> 503   store poisoned / crashed writer
    other ReproError          -> 400   request-level validation
    anything else             -> 500

Every endpoint records a latency histogram, a pages-touched histogram
(reads), and request/error counters in the shared
:class:`~repro.obs.MetricsRegistry`; ``GET /metrics`` renders the
registry in the Prometheus text format (same exposition discipline as
``repro top`` — it must pass :func:`repro.obs.lint_prometheus`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Union

from repro.concurrency.service import BatchAbortedError, TreeService, WriteOp
from repro.errors import (
    DimensionMismatchError,
    DuplicateKeyError,
    GeometryError,
    KeyNotFoundError,
    ReproError,
    StorageError,
    TreeInvariantError,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, to_prometheus
from repro.obs.profile import LATENCY_BUCKETS_US, PAGES_BUCKETS
from repro.server.batch import Settled, WriteBatcher

__all__ = ["Pending", "Response", "ServingApp", "status_for"]

#: The coordinate types a JSON body may carry (``bool`` is not one).
_NUMERIC = frozenset((int, float))


@dataclass
class Response:
    """One endpoint result: status, payload, content type."""

    status: int
    payload: Any
    content_type: str = "application/json"

    def body_bytes(self) -> bytes:
        if self.content_type == "application/json":
            return (json.dumps(self.payload) + "\n").encode()
        return str(self.payload).encode()


class Pending:
    """A batched write's reply: the batcher's next ``drain()`` passes
    its :class:`Response` to :attr:`callback`, which the caller sets."""

    __slots__ = ("callback",)

    def __init__(self) -> None:
        self.callback: Callable[[Response], None] = lambda response: None


#: What :meth:`ServingApp.handle` returns.
Reply = Union[Response, Pending]
#: Builds a write's success response from its result and LSN.
_Respond = Callable[[Any, int], Response]
#: A route's answer: a response, or a write and its ``_Respond``.
_Answer = Union[Response, tuple[WriteOp, _Respond]]


def status_for(exc: BaseException) -> int:
    """The HTTP status an exception maps to (see module docstring)."""
    if isinstance(exc, BatchAbortedError):
        cause = exc.cause
        # An aborted batch is always the *request's* fault unless the
        # index itself broke: surface the cause's class of error but
        # never a 404 (the batch as a whole was rejected, not missing).
        status = status_for(cause)
        return 400 if status == 404 else status
    if isinstance(exc, KeyNotFoundError):
        return 404
    if isinstance(exc, DuplicateKeyError):
        return 409
    if isinstance(exc, GeometryError):
        return 400
    if isinstance(exc, TreeInvariantError):
        return 500
    if isinstance(exc, StorageError):
        return 503
    if isinstance(exc, ReproError):
        return 400
    return 500


class _EndpointInstruments:
    """Lazy per-endpoint instruments in the shared registry."""

    __slots__ = ("latency_us", "pages", "requests", "errors")

    def __init__(self, registry: MetricsRegistry, endpoint: str):
        prefix = f"serve.{endpoint}"
        self.latency_us: Histogram = registry.histogram(
            f"{prefix}.latency_us", LATENCY_BUCKETS_US
        )
        self.pages: Histogram = registry.histogram(
            f"{prefix}.pages", PAGES_BUCKETS
        )
        self.requests: Counter = registry.counter(f"{prefix}.requests")
        self.errors: Counter = registry.counter(f"{prefix}.errors")


@dataclass
class _Route:
    endpoint: str
    handler: Callable[["ServingApp", dict[str, Any]], _Answer]
    needs_body: bool = True


class ServingApp:
    """Transport-free request handler over one :class:`TreeService`.

    Parameters
    ----------
    service:
        The concurrency facade the app serves.
    registry:
        Optionally a shared :class:`MetricsRegistry` (the CLI passes one
        so ``/metrics`` and other exporters agree); a fresh one is
        created otherwise.
    batcher:
        Optionally a :class:`WriteBatcher`.  When present, single-op
        writes (``insert``/``delete``) go through it — group commits of
        the writes parsed in one loop pass — and :meth:`handle`
        returns a :class:`Pending` reply for them.  Without one, writes
        apply directly (the contract tests run this way).  ``/v1/batch``
        and ``/v1/bulk`` always bypass the batcher: the former needs the
        all-or-nothing path, the latter is a rare whole-tree build.
    """

    def __init__(
        self,
        service: TreeService,
        *,
        registry: MetricsRegistry | None = None,
        batcher: WriteBatcher | None = None,
    ):
        self.service = service
        self.registry = registry if registry is not None else MetricsRegistry()
        self.batcher = batcher
        self._instruments: dict[str, _EndpointInstruments] = {}

    # -- dispatch --------------------------------------------------------

    def handle(self, method: str, path: str, body: bytes | None) -> Reply:
        """Serve one request; never raises (errors become responses).

        A batched write returns a :class:`Pending` reply instead, which
        settles when the batcher commits it; its latency is observed
        then.
        """
        route = _ROUTES.get((method.upper(), path))
        if route is None:
            if any(p == path for _, p in _ROUTES):
                return Response(
                    405, {"error": f"method {method} not allowed for {path}"}
                )
            return Response(404, {"error": f"no route for {path}"})
        instruments = self._instrument(route.endpoint)
        instruments.requests.inc()
        t0 = perf_counter()
        try:
            request = self._parse_body(body) if route.needs_body else {}
            answer = route.handler(self, request)
            if isinstance(answer, Response):
                response = answer
            elif self.batcher is not None:
                return self._submit(*answer, instruments, t0)
            else:
                # A write: ``respond(result, lsn)`` builds its success
                # response; a failed op raises its error, mapped below.
                op, respond = answer
                response = _written(self.service.apply_ops([op]), respond)
        except BaseException as exc:
            instruments.errors.inc()
            response = self._error_response(exc)
        instruments.latency_us.observe((perf_counter() - t0) * 1e6)
        return response

    def _submit(
        self,
        op: WriteOp,
        respond: _Respond,
        instruments: _EndpointInstruments,
        t0: float,
    ) -> Pending:
        """Queue one write with the batcher and return its reply."""
        pending = Pending()

        def settle(outcome: Settled) -> None:
            try:
                response = _written(outcome, respond)
            except Exception as exc:
                instruments.errors.inc()
                response = self._error_response(exc)
            instruments.latency_us.observe((perf_counter() - t0) * 1e6)
            pending.callback(response)

        self.batcher.submit([op], settle)  # type: ignore[union-attr]
        return pending

    def _instrument(self, endpoint: str) -> _EndpointInstruments:
        instruments = self._instruments.get(endpoint)
        if instruments is None:
            instruments = _EndpointInstruments(self.registry, endpoint)
            self._instruments[endpoint] = instruments
        return instruments

    @staticmethod
    def _parse_body(body: bytes | None) -> dict[str, Any]:
        if not body:
            return {}
        try:
            data = json.loads(body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ReproError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ReproError("request body must be a JSON object")
        return data

    @staticmethod
    def _error_response(exc: BaseException) -> Response:
        payload: dict[str, Any] = {
            "error": str(exc),
            "kind": type(exc).__name__,
        }
        if isinstance(exc, BatchAbortedError):
            payload["index"] = exc.index
            payload["cause"] = type(exc.cause).__name__
        return Response(status_for(exc), payload)

    # -- request field helpers ------------------------------------------

    @staticmethod
    def _point(request: dict[str, Any], key: str = "point") -> tuple[float, ...]:
        value = request.get(key)
        if not isinstance(value, (list, tuple)) or not value or not all(
            isinstance(c, (int, float)) and not isinstance(c, bool)
            for c in value
        ):
            raise ReproError(
                f"field {key!r} must be a non-empty array of numbers"
            )
        return tuple(float(c) for c in value)

    @staticmethod
    def _replace(request: dict[str, Any], name: str = "field 'replace'") -> bool:
        """The ``replace`` flag: false when absent, else a JSON boolean."""
        replace = request.get("replace", False)
        if replace is not True and replace is not False:
            raise ReproError(
                f"{name} must be true or false, got {json.dumps(replace)}"
            )
        return replace

    # -- endpoints -------------------------------------------------------

    def _get(self, request: dict[str, Any]) -> Response:
        point = self._point(request)
        snapshot = self.service.snapshot()
        try:
            value = snapshot.get(point)
        except KeyNotFoundError:
            # The miss is part of the contract, not an app error; it is
            # still a 404 to the client but carries the snapshot's LSN.
            return Response(
                404,
                {
                    "error": f"no record at {list(point)}",
                    "kind": "KeyNotFoundError",
                    "lsn": snapshot.lsn,
                },
            )
        finally:
            self._instrument("get").pages.observe(snapshot.store.reads)
        return Response(
            200,
            {"point": list(point), "value": value, "lsn": snapshot.lsn},
        )

    def _insert(self, request: dict[str, Any]) -> _Answer:
        point = self._point(request)
        replace = self._replace(request)
        op: WriteOp = ("insert", point, request.get("value"), replace)
        return op, lambda _, lsn: Response(201, {"point": list(point), "lsn": lsn})

    def _delete(self, request: dict[str, Any]) -> _Answer:
        point = self._point(request)
        return ("delete", point), lambda value, lsn: Response(
            200, {"point": list(point), "value": value, "lsn": lsn}
        )

    def _range(self, request: dict[str, Any]) -> Response:
        lows = self._point(request, "lows")
        highs = self._point(request, "highs")
        snapshot = self.service.snapshot()
        result = snapshot.range_query(lows, highs)
        self._instrument("range").pages.observe(result.pages_visited)
        return Response(
            200,
            {
                "count": len(result.records),
                "records": [
                    {"point": list(point), "value": value}
                    for point, value in result.records
                ],
                "pages_visited": result.pages_visited,
                "lsn": snapshot.lsn,
            },
        )

    def _knn(self, request: dict[str, Any]) -> Response:
        point = self._point(request)
        k = request.get("k", 1)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ReproError(f"field 'k' must be a positive integer, got {k!r}")
        snapshot = self.service.snapshot()
        result = snapshot.nearest(point, k=k)
        self._instrument("knn").pages.observe(result.pages_visited)
        return Response(
            200,
            {
                "neighbours": [
                    {
                        "point": list(n.point),
                        "value": n.value,
                        "distance": n.distance,
                    }
                    for n in result.neighbours
                ],
                "pages_visited": result.pages_visited,
                "lsn": snapshot.lsn,
            },
        )

    def _batch(self, request: dict[str, Any]) -> Response:
        raw = request.get("ops")
        if not isinstance(raw, list) or not raw:
            raise ReproError("field 'ops' must be a non-empty array")
        ops: list[WriteOp] = []
        for i, item in enumerate(raw):
            if not isinstance(item, dict):
                raise ReproError(f"ops[{i}] must be an object")
            verb = item.get("op")
            if verb == "insert":
                ops.append(
                    (
                        "insert",
                        self._point(item),
                        item.get("value"),
                        self._replace(item, f"ops[{i}].replace"),
                    )
                )
            elif verb == "delete":
                ops.append(("delete", self._point(item)))
            else:
                raise ReproError(
                    f"ops[{i}].op must be insert/delete, got {verb!r}"
                )
        lsn = self.service.apply_batch(ops)
        return Response(200, {"applied": len(ops), "lsn": lsn})

    def _bulk(self, request: dict[str, Any]) -> Response:
        raw = request.pop("records", None)
        if not isinstance(raw, list) or not raw:
            raise ReproError("field 'records' must be a non-empty array")
        replace = self._replace(request)
        loaded, lsn = self.service.bulk_load(
            _checked_records(raw, self.service.tree.space.ndim),
            replace=replace,
        )
        return Response(201, {"loaded": loaded, "lsn": lsn})

    def _health(self, request: dict[str, Any]) -> Response:
        stats = self.service.stats()
        status = "poisoned" if stats["poisoned"] else "ok"
        return Response(
            200 if status == "ok" else 503,
            {
                "status": status,
                "records": stats["records"],
                "height": stats["height"],
                "lsn": stats["lsn"],
                "wal_seq": stats["wal_seq"],
            },
        )

    def _stats(self, request: dict[str, Any]) -> Response:
        payload = self.service.stats()
        if self.batcher is not None:
            payload["batcher"] = self.batcher.stats.to_dict()
        return Response(200, payload)

    def _metrics(self, request: dict[str, Any]) -> Response:
        return Response(
            200,
            to_prometheus(self.registry),
            content_type="text/plain; version=0.0.4",
        )


def _checked_records(
    records: list[Any], ndim: int
) -> Iterator[tuple[Any, Any]]:
    """Check each ``[point, value]`` record of a bulk body and let it go.

    ``records`` is consumed: reversed once and popped from its end, so
    each record is released once the loader has copied it into its
    columns, and the load never holds the parsed body beside them.  A
    bad record raises mid-ingest, but the loader writes no page before
    its ingest pass is done, so the tree and ``store.touched`` stay
    empty, the writer stays live and the WAL is as it was.
    """
    numeric = _NUMERIC.__contains__
    records.reverse()
    pop = records.pop
    for i in range(len(records)):
        item = pop()
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ReproError(f"records[{i}] must be a [point, value] pair")
        point = item[0]
        if (
            not isinstance(point, (list, tuple))
            or not point
            or not all(map(numeric, map(type, point)))
        ):
            raise ReproError(
                f"records[{i}] point must be a non-empty array of numbers"
            )
        if len(point) != ndim:
            raise DimensionMismatchError(
                f"records[{i}] point has {len(point)} coordinates, "
                f"the space has {ndim}"
            )
        yield point, item[1]


def _written(done: Settled, respond: _Respond) -> Response:
    if isinstance(done, BaseException):
        raise done
    (ok, result), lsn = done[0][0], done[1]
    if not ok:
        raise result
    return respond(result, lsn)


_ROUTES: dict[tuple[str, str], _Route] = {
    ("POST", "/v1/get"): _Route("get", ServingApp._get),
    ("POST", "/v1/insert"): _Route("insert", ServingApp._insert),
    ("POST", "/v1/delete"): _Route("delete", ServingApp._delete),
    ("POST", "/v1/range"): _Route("range", ServingApp._range),
    ("POST", "/v1/knn"): _Route("knn", ServingApp._knn),
    ("POST", "/v1/batch"): _Route("batch", ServingApp._batch),
    ("POST", "/v1/bulk"): _Route("bulk", ServingApp._bulk),
    ("GET", "/health"): _Route("health", ServingApp._health, needs_body=False),
    ("GET", "/stats"): _Route("stats", ServingApp._stats, needs_body=False),
    ("GET", "/metrics"): _Route("metrics", ServingApp._metrics, needs_body=False),
}
