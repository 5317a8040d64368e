"""R15 — no threading or asyncio in ``repro/core``.

The core tree is single-threaded by contract: concurrency lives one
layer up, in :mod:`repro.concurrency`, where the single-writer lock and
the shadow-commit version chain make a ``BVTree`` safe to share.  A lock
or event loop *inside* the core would be a smell twice over — it would
duplicate synchronisation the service layer already owns (two lock
hierarchies is how deadlocks are built), and it would quietly change the
core's cost model (every descent paying for lock traffic that the
single-threaded perf suite then can't see).  The storage layer below
the core is single-caller too: served readers read frozen snapshots,
and the live store is touched only under the service's writer lock.

The rule flags any import of ``threading``, ``asyncio`` or ``_thread``
— plain, aliased or ``from``-form — in ``repro/core``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.context import FileContext, in_subpackage
from repro.lintkit.findings import Finding
from repro.lintkit.registry import Rule, register

#: Modules whose presence in the core marks concurrency leaking down.
_BANNED = {"threading", "asyncio", "_thread"}


@register
class CoreConcurrencyBan(Rule):
    """Flag threading/asyncio imports in the single-threaded core."""

    code = "R15"
    name = "concurrency primitive in the single-threaded core"
    fix_hint = (
        "the core tree is single-threaded by contract; wrap the tree in "
        "repro.concurrency.TreeService for shared access instead of "
        "adding locks or event loops to core code"
    )

    def applies_to(self, posix: str) -> bool:
        return in_subpackage(posix, "core")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BANNED:
                        yield self.make(
                            ctx,
                            node,
                            f"import {alias.name} brings a concurrency "
                            f"primitive into the single-threaded core",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _BANNED and node.level == 0:
                    yield self.make(
                        ctx,
                        node,
                        f"from {node.module} import ... brings a "
                        f"concurrency primitive into the single-threaded "
                        f"core",
                    )
