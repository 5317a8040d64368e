"""The async HTTP/JSON serving layer over :mod:`repro.concurrency`.

``repro serve`` boots this stack: a :class:`ServingApp` (transport-free
routes + error mapping + per-endpoint metrics) over one
:class:`~repro.concurrency.TreeService`, fronted by a stdlib-asyncio
HTTP/1.1 server.  One event loop serves every request: reads inline,
and writes through a :class:`WriteBatcher` that commits the writes of
one loop iteration as a group, with no thread of its own.  Endpoint
reference and the concurrency model live in ``docs/SERVING.md``.
"""

from repro.server.app import Response, ServingApp, status_for
from repro.server.batch import BatchStats, WriteBatcher
from repro.server.http import ServerHandle, serve_app

__all__ = [
    "BatchStats",
    "Response",
    "ServerHandle",
    "ServingApp",
    "WriteBatcher",
    "serve_app",
    "status_for",
]
