"""A served bulk load peaks at the memory of its JSON parse.

``/v1/bulk`` hands the loader one record at a time and releases each
once the loader has copied it into its columns, so the parsed body and
the loader's columns are never held whole side by side.  Measured as the
tracemalloc peak of the request against that of ``json.loads`` of the
same body alone (the body bytes and the app are built before tracing).
"""

import gc
import json
import random
import tracemalloc

from repro.concurrency import TreeService
from repro.core.tree import BVTree
from repro.geometry.space import DataSpace
from repro.server.app import ServingApp

N = 20_000


def traced_peak(fn):
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_load_peaks_at_its_parse():
    rng = random.Random(5)
    records = [[[rng.random(), rng.random()], i] for i in range(N)]
    body = json.dumps({"records": records}).encode()
    del records
    parse = traced_peak(lambda: json.loads(body))
    app = ServingApp(TreeService(BVTree(DataSpace.unit(2))))

    def load():
        response = app.handle("POST", "/v1/bulk", body)
        assert (response.status, response.payload["loaded"]) == (201, N)

    served = traced_peak(load)
    assert served <= 1.05 * parse, (served / N, parse / N)
