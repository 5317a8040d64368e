"""Launch ``repro serve`` with the benchmark's span recorder installed.

Usage: ``python perfbench/traced_serve.py SPANS_OUT serve [args...]``
with ``src`` on ``PYTHONPATH``.  The recorder wraps the layer entry
points before the CLI builds anything; when the server shuts down
(SIGINT), the spans are written to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import SpanRecorder  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    recorder.install()
    try:
        return repro_main(argv)
    finally:
        recorder.uninstall()
        recorder.dump(out)


if __name__ == "__main__":
    raise SystemExit(main())
