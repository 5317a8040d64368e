"""The serving application: routes, JSON contracts, error mapping.

The app is transport-free: :meth:`ServingApp.handle` maps ``(method,
path, body bytes)`` to a :class:`Response`, so the contract tests drive
it directly — no socket, no event loop — and the asyncio HTTP layer
(:mod:`repro.server.http`) is a thin shell around the same method.
With a :class:`~repro.server.batch.WriteBatcher` attached, a single-op
write is the one exception: ``handle`` queues it and returns an
awaitable of its response, which the loop awaits.

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
from typing import Any, Awaitable, Callable, Union

from repro.concurrency.service import BatchAbortedError, TreeService, WriteOp
from repro.errors import (
    DuplicateKeyError,
    GeometryError,
    KeyNotFoundError,
    ReproError,
    StorageError,
    TreeInvariantError,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, to_prometheus
from repro.obs.profile import LATENCY_BUCKETS_US, PAGES_BUCKETS
from repro.server.batch import Outcome, WriteBatcher

__all__ = ["Response", "ServingApp", "status_for"]


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


#: What a handler returns: a response, or (a batched write) an
#: awaitable of one.
Reply = Union[Response, Awaitable[Response]]


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
    handler: Callable[["ServingApp", dict[str, Any]], Reply]
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
        the writes parsed in one loop iteration — and :meth:`handle`
        returns an awaitable of their response.  Without one, writes
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

        A batched write returns an awaitable of its response instead,
        for the calling event loop to await; its latency is observed
        when the write's outcome resolves.
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
            response = route.handler(self, request)
        except BaseException as exc:
            instruments.errors.inc()
            response = self._error_response(exc)
        if not isinstance(response, Response):
            return self._settle(response, instruments, t0)
        instruments.latency_us.observe((perf_counter() - t0) * 1e6)
        return response

    async def _settle(
        self, pending: Awaitable[Response], instruments: _EndpointInstruments, t0: float
    ) -> Response:
        try:
            response = await pending
        except Exception as exc:
            instruments.errors.inc()
            response = self._error_response(exc)
        instruments.latency_us.observe((perf_counter() - t0) * 1e6)
        return response

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

    def _write(self, op: WriteOp, respond: Callable[[Any, int], Response]) -> Reply:
        """Apply one op, through the batcher when one is attached.

        ``respond(result, lsn)`` builds the success response; a failed
        op raises its error for :meth:`handle` to map.
        """
        if self.batcher is None:
            return _written(self.service.apply_ops([op]), respond)
        future = self.batcher.submit([op])

        async def settled() -> Response:
            return _written(await future, respond)

        return settled()

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

    def _insert(self, request: dict[str, Any]) -> Reply:
        point = self._point(request)
        replace = bool(request.get("replace", False))
        op: WriteOp = ("insert", point, request.get("value"), replace)
        return self._write(
            op, lambda _, lsn: Response(201, {"point": list(point), "lsn": lsn})
        )

    def _delete(self, request: dict[str, Any]) -> Reply:
        point = self._point(request)
        return self._write(
            ("delete", point),
            lambda value, lsn: Response(
                200, {"point": list(point), "value": value, "lsn": lsn}
            ),
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
                        bool(item.get("replace", False)),
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
        raw = request.get("records")
        if not isinstance(raw, list) or not raw:
            raise ReproError("field 'records' must be a non-empty array")
        records: list[tuple[tuple[float, ...], Any]] = []
        for i, item in enumerate(raw):
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ReproError(f"records[{i}] must be a [point, value] pair")
            records.append((self._point({"point": item[0]}), item[1]))
        loaded, lsn = self.service.bulk_load(
            records, replace=bool(request.get("replace", False))
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


def _written(done: Outcome, respond: Callable[[Any, int], Response]) -> Response:
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
