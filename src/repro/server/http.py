"""A stdlib ``selectors`` HTTP/1.1 shell around :class:`ServingApp`.

Minimal by design: request line + headers + ``Content-Length`` body,
keep-alive connections, JSON in and out, standard library only.

One loop on one thread serves every request (under the GIL more
threads would add handoffs, not parallelism).  Each pass (1) reads
every ready socket and serves the requests in its buffer: reads answer
inline, a single-op write goes to the
:class:`~repro.server.batch.WriteBatcher` and parks its connection;
(2) drains the batcher, so the writes parsed in one pass commit as one
group, and answers them; (3) resumes parsing on the connections those
writes had parked.  Output the socket does not take waits for
``EVENT_WRITE``, and the connection is not read until it is sent.  A
header block over :data:`MAX_HEADER_BYTES`, a body over
:data:`MAX_BODY_BYTES` or a malformed request is answered 400 and the
connection closed.
"""

from __future__ import annotations

import selectors
import socket
import threading
from http import HTTPStatus
from typing import Any

from repro.server.app import Pending, Response, ServingApp

__all__ = ["ServerHandle", "serve_app"]

#: Refuse request bodies beyond this size (a serving guard, not a limit
#: any legitimate endpoint approaches — bulk loads of millions of
#: records belong in the CLI, not a single HTTP request).
MAX_BODY_BYTES = 32 * 1024 * 1024
#: Refuse a request whose line and headers exceed this many bytes.
MAX_HEADER_BYTES = 64 * 1024

_RECV_BYTES = 256 * 1024
_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE

_REASONS = {status.value: status.phrase for status in HTTPStatus}

_MALFORMED = Response(400, {"error": "malformed request"})


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


def _parse_head(head: bytearray) -> tuple[str, str, int, bool]:
    """``(method, path, content length, keep-alive)`` of one header
    block; raises ``ValueError`` when it is malformed."""
    lines = head.split(b"\r\n")
    method, target, _version = lines[0].decode("latin-1").split()
    length, keep_alive = 0, True
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            length = int(value)
            if not 0 <= length <= MAX_BODY_BYTES:
                raise ValueError(f"request body of {length} bytes")
        elif name == b"connection":
            keep_alive = value.strip().lower() != b"close"
    # Strip any query string; the API carries arguments in JSON bodies.
    return method, target.split("?", 1)[0], length, keep_alive


class _Connection:
    """One client socket: unparsed input, unsent output, its state."""

    __slots__ = ("sock", "inbuf", "outbuf", "events", "parked", "closing", "closed")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        #: The selector events the socket is registered for.
        self.events = _READ
        #: A write of this connection waits for the batcher's drain.
        self.parked = False
        #: Close once the output is sent (``Connection: close``, a 400).
        self.closing = False
        self.closed = False


class ServerHandle:
    """The listener, its connections and the loop that serves them.

    :meth:`start` binds and runs the loop in a daemon thread for
    in-process callers (the HTTP tests and the benchmark's self-tests:
    bind port 0, read :attr:`port`, talk over a real socket);
    :func:`serve_app` runs it in the calling thread.
    """

    def __init__(self, app: ServingApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.host = host
        self.port = port
        self._stopping = False
        self._thread: threading.Thread | None = None
        #: Connections whose write waits for this pass's drain.
        self._parked: list[_Connection] = []

    def _bind(self) -> None:
        self._listener = socket.create_server((self.host, self.port))
        self.port = self._listener.getsockname()[1]
        self._wake, self._waker = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        for sock in (self._listener, self._wake, self._waker):
            sock.setblocking(False)
        self._selector.register(self._listener, _READ, None)
        self._selector.register(self._wake, _READ, None)

    def start(self) -> "ServerHandle":
        self._bind()
        self._thread = threading.Thread(
            target=self._serve, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        self._stopping = True
        if self._thread is not None:
            try:
                self._waker.send(b"\0")
            except OSError:  # closed already, or a wake-up is queued
                pass
            self._thread.join(timeout=10.0)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _serve(self) -> None:
        """Run the loop until :meth:`stop`; close every socket on exit."""
        batcher = self.app.batcher
        select = self._selector.select
        listener, wake = self._listener, self._wake
        try:
            while not self._stopping:
                # A write parsed in the last pass's step 3 waits for
                # this pass's drain: poll, don't block.
                for key, mask in select(0 if self._parked else None):
                    conn = key.data
                    if conn is None:
                        if key.fileobj is listener:
                            self._accept()
                        else:
                            wake.recv(4096)
                    elif mask & _WRITE:
                        self._flush(conn)
                        # Requests read before the output backed up.
                        self._parse(conn)
                    elif not conn.parked:
                        try:
                            data = conn.sock.recv(_RECV_BYTES)
                        except (BlockingIOError, InterruptedError):
                            continue
                        except OSError:
                            data = b""
                        if data:
                            conn.inbuf += data
                            self._parse(conn)
                        else:  # the peer is gone
                            self._close(conn)
                if self._parked and batcher is not None:
                    batcher.drain()
                resumed, self._parked = self._parked, []
                for conn in resumed:
                    self._parse(conn)
            # Stopped: apply what was parsed, answer whom we still can.
            if self._parked and batcher is not None:
                batcher.drain()
        finally:
            for key in list(self._selector.get_map().values()):
                if key.data is not None:
                    self._close(key.data)
            self._selector.close()
            for sock in (self._listener, self._wake, self._waker):
                sock.close()

    # -- connections -----------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # the peer gave up, or out of descriptors
            return
        sock.setblocking(False)
        # Responses go out in one send each; Nagle would hold the next
        # one back for the client's delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector.register(sock, _READ, _Connection(sock))

    def _parse(self, conn: _Connection) -> None:
        """Serve the complete requests in ``conn``'s input, in order,
        until one parks on the batcher or output is left unsent."""
        buf = conn.inbuf
        while not (conn.parked or conn.outbuf or conn.closed or conn.closing):
            end = buf.find(b"\r\n\r\n", 0, MAX_HEADER_BYTES + 4)
            if end < 0:
                # Over the cap, or a head ended by bare LFs (only CRLF
                # ends one here): answer rather than wait for more.
                if len(buf) > MAX_HEADER_BYTES or b"\n\n" in buf:
                    self._send(conn, _MALFORMED, False)
                return
            try:
                method, path, length, keep_alive = _parse_head(buf[:end])
            except ValueError:
                self._send(conn, _MALFORMED, False)
                return
            start = end + 4
            if len(buf) < start + length:
                return
            body = bytes(buf[start : start + length])
            del buf[: start + length]
            reply = self.app.handle(method, path, body)
            if isinstance(reply, Pending):
                conn.parked = True
                reply.callback = lambda r, k=keep_alive: self._send(conn, r, k)
                self._parked.append(conn)
            else:
                self._send(conn, reply, keep_alive)

    def _send(self, conn: _Connection, response: Response, keep_alive: bool) -> None:
        conn.parked = False
        if conn.closed:
            return
        conn.outbuf += _encode(response, keep_alive)
        conn.closing = not keep_alive
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        """Send what the socket takes; wait for writability for the
        rest, and read again (or close) once it is all sent."""
        out = conn.outbuf
        try:
            sent = conn.sock.send(out)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            self._close(conn)
            return
        del out[:sent]
        if out:
            events = _WRITE
        elif conn.closing:
            self._close(conn)
            return
        else:
            events = _READ
        if events != conn.events:
            conn.events = events
            self._selector.modify(conn.sock, events, conn)

    def _close(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._selector.unregister(conn.sock)
        conn.sock.close()


def serve_app(app: ServingApp, host: str = "127.0.0.1", port: int = 8077) -> None:
    """Serve ``app`` in the calling thread until interrupted."""
    server = ServerHandle(app, host, port)
    server._bind()
    server._serve()
