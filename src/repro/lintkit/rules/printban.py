"""R10 — no ``print`` or ad-hoc logging in ``repro/core``.

The core layer has exactly one sanctioned way to report what an
operation did: emit a :class:`~repro.obs.events.TraceEvent` through the
tree's :class:`~repro.obs.Tracer` (and bump the matching
:class:`~repro.core.stats.OpCounters` field).  A ``print`` call — or a
``logging`` import — in core code is output the harness cannot capture,
count or replay: it bypasses the sink protocol, breaks the
trace-equals-counters invariant the integration tests assert, and costs
formatting work on hot paths even when nobody is listening.

Rendering modules that exist to produce text (``repro/core/render.py``)
still must not print; they return strings and the CLI prints them —
this rule flags the call, not the string-building.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.context import FileContext, in_subpackage
from repro.lintkit.findings import Finding
from repro.lintkit.registry import Rule, register

_LOGGING_MODULES = ("logging", "warnings")


@register
class CorePrintBan(Rule):
    """Flag ``print`` calls and logging imports in ``repro/core``."""

    code = "R10"
    name = "ad-hoc output in core code"
    fix_hint = (
        "emit a TraceEvent through tree.tracer (repro.obs) instead of "
        "printing/logging; a tracer with no subscribers makes it free"
    )

    def applies_to(self, posix: str) -> bool:
        return in_subpackage(posix, "core")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.make(
                    ctx, node, "core code calls print() directly"
                )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".", 1)[0]
                    if root in _LOGGING_MODULES:
                        yield self.make(
                            ctx,
                            node,
                            f"core code imports {alias.name} for ad-hoc "
                            f"output",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".", 1)[0]
                if root in _LOGGING_MODULES:
                    yield self.make(
                        ctx,
                        node,
                        f"core code imports from {node.module} for "
                        f"ad-hoc output",
                    )
