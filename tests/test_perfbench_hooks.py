"""The traced benchmark pass wraps program methods on their classes.

``perfbench/tracing.py``'s :class:`SpanRecorder` looks each wrapped
method up in its class's own ``__dict__``, so moving one of them to a
base class or a helper breaks the traced pass with a ``KeyError``.  This
test installs the recorder in process and checks that every hook lands
where the traced pass expects it and that ``uninstall`` restores each
class exactly.
"""

import gc
import importlib
import os
import sys

from repro.concurrency.service import TreeService
from repro.concurrency.snapshots import Snapshot
from repro.core.tree import BVTree
from repro.geometry.space import DataSpace
from repro.server.app import ServingApp
from repro.server.batch import WriteBatcher
from repro.storage.durable.store import DurableStore
from repro.storage.pager import PageStore

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)

#: Every attribute the traced pass wraps, on the class that must own it.
HOOKS = {
    ServingApp: ("handle",),
    WriteBatcher: ("submit",),
    TreeService: ("insert", "delete", "bulk_load", "apply_batch", "apply_ops"),
    Snapshot: ("get", "range_query", "nearest"),
    BVTree: ("insert", "delete", "bulk_load"),
    DataSpace: ("point_path",),
    PageStore: ("allocate", "read", "write", "free"),
    DurableStore: ("allocate", "write", "free"),
}


def load_tracing():
    """Import ``perfbench/tracing.py`` (and its ``stats`` helper) as
    top-level modules, leaving ``sys.path`` and ``sys.modules`` as they
    were."""
    saved = {name: sys.modules.pop(name, None) for name in ("tracing", "stats")}
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module


def test_install_wraps_every_hook_and_uninstall_restores_it():
    before = {cls: dict(vars(cls)) for cls in HOOKS}
    callbacks = list(gc.callbacks)
    recorder = load_tracing().SpanRecorder()
    recorder.install()
    try:
        for cls, attrs in HOOKS.items():
            for attr in attrs:
                wrapped = vars(cls)[attr]
                assert wrapped is not before[cls][attr], (cls, attr)
                assert wrapped.__wrapped__ is before[cls][attr], (cls, attr)
    finally:
        recorder.uninstall()
    for cls, attrs in before.items():
        assert dict(vars(cls)) == attrs, cls
        for attr in HOOKS[cls]:
            assert vars(cls)[attr] is attrs[attr], (cls, attr)
    assert gc.callbacks == callbacks
