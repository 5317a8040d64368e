"""A minimal keep-alive HTTP/1.1 client over one loopback socket.

Lean on purpose: requests are pre-encoded bytes and responses are
parsed only as far as status and ``Content-Length``, so the client adds
as little of its own time as possible to the latency it measures.
"""

from __future__ import annotations

import socket

TIMEOUT_S = 10.0


class Connection:
    """One keep-alive connection to ``127.0.0.1:port``."""

    def __init__(self, port: int, timeout: float = TIMEOUT_S):
        self.port = port
        self.timeout = timeout
        self.sock: socket.socket | None = None
        self.buf = b""
        self.connect()

    def connect(self) -> None:
        self.close()
        sock = socket.create_connection(("127.0.0.1", self.port), self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.buf = b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """Send one request and return ``(status, body)``.

        Raises ``OSError`` (timeouts included) or ``ConnectionError``.
        """
        sock = self.sock
        if sock is None:
            raise ConnectionError("connection is closed")
        sock.sendall(
            b"%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
            % (method.encode(), path.encode(), len(body), body)
        )
        buf = self.buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        head = buf[:end]
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        need = end + 4 + length
        while len(buf) < need:
            chunk = sock.recv(max(65536, need - len(buf)))
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        self.buf = buf[need:]
        return status, buf[end + 4 : need]
