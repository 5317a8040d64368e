"""A stdlib-asyncio HTTP/1.1 shell around :class:`ServingApp`.

Minimal by design: request line + headers + ``Content-Length`` body,
keep-alive connections, JSON in and out.  No dependency beyond the
standard library (the container the repo targets has no web framework).

Threading model: one event loop serves every request.  Reads run
inline — a snapshot read is sub-millisecond CPU work, and under the GIL
a thread pool would add handoffs without adding parallelism.  A
single-op write is queued with the :class:`~repro.server.batch.WriteBatcher`
and its connection awaits the response; the batcher commits every write
parsed in the same loop iteration as one group, on the loop thread.
Each connection has at most one request in flight, so pending writes
are bounded by the open connections.

:class:`ServerHandle` hosts the loop in a daemon thread for in-process
callers (the tests); ``repro serve`` runs :func:`serve_app` in the
foreground.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro.errors import ReproError
from repro.server.app import Response, ServingApp

__all__ = ["ServerHandle", "serve_app"]

#: Refuse request bodies beyond this size (a serving guard, not a limit
#: any legitimate endpoint approaches — bulk loads of millions of
#: records belong in the CLI, not a single HTTP request).
MAX_BODY_BYTES = 32 * 1024 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _encode(response: Response, keep_alive: bool) -> bytes:
    body = response.body_bytes()
    reason = _REASONS.get(response.status, "Unknown")
    head = (
        f"HTTP/1.1 {response.status} {reason}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode() + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request; ``None`` on clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ReproError(f"malformed request line: {line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ReproError(f"request body of {length} bytes exceeds the cap")
    body = await reader.readexactly(length) if length else b""
    # Strip any query string; the API carries arguments in JSON bodies.
    path = target.split("?", 1)[0]
    return method, path, headers, body


async def _handle_connection(
    app: ServingApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                request = await _read_request(reader)
            except (ReproError, ValueError, asyncio.IncompleteReadError):
                writer.write(
                    _encode(
                        Response(400, {"error": "malformed request"}), False
                    )
                )
                await writer.drain()
                return
            if request is None:
                return
            method, path, headers, body = request
            keep_alive = headers.get("connection", "").lower() != "close"
            response = app.handle(method, path, body)
            if not isinstance(response, Response):
                response = await response
            writer.write(_encode(response, keep_alive))
            await writer.drain()
            if not keep_alive:
                return
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown
            pass


async def serve_app(
    app: ServingApp,
    host: str = "127.0.0.1",
    port: int = 8077,
    *,
    ready: "threading.Event | None" = None,
    bound: "list[int] | None" = None,
    stop: "asyncio.Event | None" = None,
) -> None:
    """Serve ``app`` until ``stop`` is set (or forever)."""

    connections: set["asyncio.Task[None]"] = set()

    async def client(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            connections.add(task)
        try:
            await _handle_connection(app, reader, writer)
        finally:
            if task is not None:
                connections.discard(task)

    server = await asyncio.start_server(client, host, port)
    try:
        if bound is not None:
            bound.append(server.sockets[0].getsockname()[1])
        if ready is not None:
            ready.set()
        if stop is None:
            await server.serve_forever()
        else:
            await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        # Idle keep-alive connections are parked in readline(); cancel
        # them so the loop closes without orphaned tasks.
        for task in list(connections):
            task.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)


class ServerHandle:
    """Run a serving app's event loop in a background thread.

    Used by the HTTP tests and the benchmark's self-tests: bind port 0,
    read :attr:`port`, talk over a real socket.
    """

    def __init__(self, app: ServingApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.host = host
        self.port = port
        self._ready = threading.Event()
        self._bound: list[int] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._failure: list[BaseException] = []
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def start(self) -> "ServerHandle":
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._failure:
            raise self._failure[0]
        if not self._ready.is_set():
            raise ReproError("server failed to start within 10s")
        self.port = self._bound[0]
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._stop = asyncio.Event()
        try:
            loop.run_until_complete(
                serve_app(
                    self.app,
                    self.host,
                    self.port,
                    ready=self._ready,
                    bound=self._bound,
                    stop=self._stop,
                )
            )
        except BaseException as exc:
            self._failure.append(exc)
            self._ready.set()
        finally:
            loop.close()

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout=10.0)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
