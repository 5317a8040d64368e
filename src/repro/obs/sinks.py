"""Trace sinks: where emitted events go.

A sink is a tracer subscriber: anything with an ``emit(event)`` method
and a ``kinds`` attribute (the :class:`TraceSink` protocol), ``kinds``
being the frozenset of event kinds it consumes or ``None`` for every
kind.  Two full-capture implementations cover the standard uses:

- :class:`RingSink` — a bounded in-memory ring buffer; the EXPLAIN
  facility and the replay tests capture through it, and long-running
  processes can keep "the last N events" for post-mortems without
  unbounded growth.
- :class:`JsonlSink` — appends one JSON object per event to a file,
  the interchange form external tooling reads (``repro trace`` writes
  it, CI uploads it as an artifact).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO, Any, Protocol, runtime_checkable

from repro.errors import ReproError
from repro.obs.events import TraceEvent

__all__ = ["JsonlSink", "RingSink", "TraceSink", "read_jsonl"]


@runtime_checkable
class TraceSink(Protocol):
    """The surface a tracer writes to: one subscriber."""

    @property
    def kinds(self) -> frozenset[str] | None:
        """The event kinds delivered to :meth:`emit`, or ``None`` for all."""

    def emit(self, event: TraceEvent) -> None:
        """Accept one event.  Must not raise on well-formed events."""


class RingSink:
    """Keeps the most recent ``capacity`` events in memory.

    ``dropped`` counts events that fell off the old end — a consumer can
    tell a complete capture from a truncated one.
    """

    #: A full capture: every event kind.
    kinds = None

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ReproError(
                f"ring capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.dropped = 0
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        """Append, evicting the oldest event when full."""
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)

    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._buffer)

    def publish(self, registry: Any, prefix: str = "trace.ring") -> None:
        """Expose the ring's state as registry gauges.

        Overflow used to be invisible unless a caller remembered to read
        ``dropped``; publishing ``<prefix>.dropped`` (plus ``retained``
        and ``capacity``) puts the truncation signal on the same
        dashboards as everything else — a Prometheus scrape or a
        :class:`~repro.obs.metrics.TimeSeriesSink` sample shows at a
        glance whether a capture is complete.  Call it whenever current
        values are wanted (e.g. as a :class:`~repro.obs.TimeSeriesSink`
        ``prepare`` hook); it is O(1).
        """
        registry.gauge(f"{prefix}.dropped").set(self.dropped)
        registry.gauge(f"{prefix}.retained").set(len(self._buffer))
        registry.gauge(f"{prefix}.capacity").set(self.capacity)

    def clear(self) -> None:
        """Forget all retained events (``dropped`` is reset too)."""
        self._buffer.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlSink:
    """Writes one JSON object per event to a file (JSON Lines).

    Usable as a context manager; :meth:`close` flushes and closes the
    underlying file.  ``count`` is the number of events written.
    """

    #: A full capture: every event kind.
    kinds = None

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self.count = 0
        try:
            self._file: IO[str] | None = self.path.open("w")
        except OSError as exc:
            raise ReproError(f"cannot open trace file {path}: {exc}") from None

    def emit(self, event: TraceEvent) -> None:
        """Serialise and append one event."""
        if self._file is None:
            raise ReproError(f"trace file {self.path} is already closed")
        self._file.write(json.dumps(event.to_dict(), sort_keys=False) + "\n")
        self.count += 1

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl(path: Path | str) -> list[TraceEvent]:
    """Load the events a :class:`JsonlSink` wrote, in file order."""
    events: list[TraceEvent] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ReproError(f"cannot read trace file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(TraceEvent.from_dict(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"{path}:{lineno}: malformed trace record: {exc}"
            ) from None
    return events
