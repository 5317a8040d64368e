"""Seeded inputs, op streams and the benchmark's own model of the live set.

Everything the program receives is generated here from the workload
seed.  Points are 2-d in ``[0, 1)`` and path-deduplicated: two points
in the same cell of the served space's ``2**RESOLUTION`` grid are one
key to the tree, so the generators never emit a second point into a
taken cell.

A :class:`Lane` is one closed-loop client's op stream.  It draws each op
from its mix against its own model (live points with their values, and
a pool of absent points to insert), so the same seed gives the same op
sequence.  The caller reports each op's outcome back with
:meth:`Lane.commit`, which keeps the model in step with the tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: Grid resolution (bits per dimension) of the space ``repro serve``
#: builds.
RESOLUTION = 18
CELLS = 1 << RESOLUTION

Point = tuple[float, float]

#: Side of every range query's box (~45 hits among 50,000 uniform
#: points) and the ``k`` of every k-NN query.
BOX_SIDE = 0.03
K = 8


def _cell(p: Point) -> tuple[int, int]:
    return int(p[0] * CELLS), int(p[1] * CELLS)


def uniform_points(rng: random.Random, n: int, taken: set) -> list[Point]:
    """``n`` uniform points in cells not yet in ``taken`` (updated)."""
    out: list[Point] = []
    while len(out) < n:
        p = (rng.random(), rng.random())
        cell = _cell(p)
        if cell not in taken:
            taken.add(cell)
            out.append(p)
    return out


def clustered_points(
    rng: random.Random,
    n: int,
    taken: set,
    centres: list[Point],
    spread: float = 0.02,
) -> list[Point]:
    """``n`` Gaussian-cluster points in free cells (``taken`` updated)."""
    out: list[Point] = []
    top = 1.0 - 1e-12
    while len(out) < n:
        cx, cy = centres[rng.randrange(len(centres))]
        p = (
            min(max(rng.gauss(cx, spread), 0.0), top),
            min(max(rng.gauss(cy, spread), 0.0), top),
        )
        cell = _cell(p)
        if cell not in taken:
            taken.add(cell)
            out.append(p)
    return out


class Pool:
    """A set of points with O(1) seeded random choice and removal."""

    __slots__ = ("items", "index")

    def __init__(self, items: list[Point] = ()):
        self.items = list(items)
        self.index = {p: i for i, p in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def pick(self, rng: random.Random) -> Point:
        return self.items[rng.randrange(len(self.items))]

    def add(self, p: Point) -> None:
        self.index[p] = len(self.items)
        self.items.append(p)

    def remove(self, p: Point) -> None:
        i = self.index.pop(p)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.index[last] = i


@dataclass(frozen=True)
class Mix:
    """Op shares of a lane, and where its queries are centred."""

    get: float = 0.0
    range: float = 0.0
    knn: float = 0.0
    insert: float = 0.0
    delete: float = 0.0
    #: Centre queries on live points instead of drawing them uniformly,
    #: so that on clustered data every query meets data and the cost of
    #: a query varies little with where the seed put the clusters.
    anchored: bool = False

    def kinds(self) -> list[tuple[str, float]]:
        shares = [
            ("get", self.get),
            ("range", self.range),
            ("knn", self.knn),
            ("insert", self.insert),
            ("delete", self.delete),
        ]
        total = sum(s for _, s in shares)
        acc = 0.0
        out = []
        for kind, share in shares:
            if share > 0:
                acc += share / total
                out.append((kind, acc))
        out[-1] = (out[-1][0], 1.0)
        return out


class Lane:
    """One client's seeded op stream over its own slice of the model.

    ``live`` maps each point the lane may read or delete to its value;
    ``absent`` are points it may insert.  Lanes of concurrent clients
    own disjoint pools, so their streams never race on a key.
    """

    def __init__(
        self,
        seed: int,
        mix: Mix,
        live: dict[Point, int],
        absent: list[Point] = (),
        first_value: int = 1 << 30,
    ):
        self.rng = random.Random(seed)
        self.mix = mix
        self.cumulative = mix.kinds()
        self.values = dict(live)
        self.live = Pool(list(live))
        self.absent = Pool(list(absent))
        self.next_value = first_value
        #: Ops issued, and query answers kept for checking, so far.
        self.issued = 0
        self.kept = {"range": 0, "knn": 0}

    def next_op(self, kind: str | None = None) -> tuple:
        """The next op, drawn from the mix unless ``kind`` forces one.

        Reads and writes carry the model's expected value last:
        ``("get", p, value)``, ``("delete", p, value)``,
        ``("insert", p, value)``; queries are ``("range", lows, highs)``
        and ``("knn", q, k)``.
        """
        rng = self.rng
        if kind is None:
            r = rng.random()
            for kind, edge in self.cumulative:
                if r < edge:
                    break
        if kind == "insert" and not self.absent:
            kind = "delete"  # nothing deleted yet to re-insert
        if kind == "delete" and not self.live:
            kind = "insert"
        if kind == "get":
            p = self.live.pick(rng)
            return ("get", p, self.values[p])
        if kind == "delete":
            p = self.live.pick(rng)
            return ("delete", p, self.values[p])
        if kind == "insert":
            p = self.absent.pick(rng)
            self.next_value += 1
            return ("insert", p, self.next_value)
        if kind == "range":
            side = BOX_SIDE
            if self.mix.anchored:
                cx, cy = self.live.pick(rng)
                x = min(max(cx - side / 2, 0.0), 1.0 - side)
                y = min(max(cy - side / 2, 0.0), 1.0 - side)
            else:
                x = rng.random() * (1.0 - side)
                y = rng.random() * (1.0 - side)
            return ("range", (x, y), (x + side, y + side))
        if self.mix.anchored:
            return ("knn", self.live.pick(rng), K)
        return ("knn", (rng.random(), rng.random()), K)

    def commit(self, op: tuple) -> None:
        """Apply a *successful* write to the model."""
        if op[0] == "insert":
            self.absent.remove(op[1])
            self.live.add(op[1])
            self.values[op[1]] = op[2]
        elif op[0] == "delete":
            self.live.remove(op[1])
            self.absent.add(op[1])
            del self.values[op[1]]


class Oracle:
    """Numpy brute force over a fixed universe of points.

    Writes flip an alive mask as they are replayed; a sampled query is
    checked against the mask as it stood when the query ran.
    """

    def __init__(self, universe: list[Point], alive: list[Point]):
        self.xy = np.array(universe, dtype=np.float64)
        self.index = {p: i for i, p in enumerate(universe)}
        self.alive = np.zeros(len(universe), dtype=bool)
        for p in alive:
            self.alive[self.index[p]] = True

    def write(self, kind: str, p: Point) -> None:
        self.alive[self.index[p]] = kind == "insert"

    def count(self) -> int:
        return int(self.alive.sum())

    def range_points(self, lows: Point, highs: Point) -> set[Point]:
        xy = self.xy
        hit = (
            self.alive
            & (xy[:, 0] >= lows[0]) & (xy[:, 0] < highs[0])
            & (xy[:, 1] >= lows[1]) & (xy[:, 1] < highs[1])
        )
        return {(float(x), float(y)) for x, y in xy[hit]}

    def knn_distances(self, q: Point, k: int) -> list[float]:
        xy = self.xy[self.alive]
        d = np.sqrt((xy[:, 0] - q[0]) ** 2 + (xy[:, 1] - q[1]) ** 2)
        k = min(k, len(d))
        return sorted(np.partition(d, k - 1)[:k].tolist())

    def check_range(self, lows: Point, highs: Point, points: list[Point]) -> bool:
        return len(points) == len(set(points)) and set(points) == self.range_points(lows, highs)

    def check_knn(self, q: Point, k: int, points: list[Point]) -> bool:
        """Same distances as the brute-force k nearest (ties may differ)."""
        want = self.knn_distances(q, k)
        if len(points) != len(want) or len(set(points)) != len(points):
            return False
        for p in points:
            i = self.index.get(p)
            if i is None or not self.alive[i]:
                return False
        got = sorted(
            float(np.sqrt((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2))
            for p in points
        )
        return all(abs(a - b) <= 1e-12 for a, b in zip(got, want))


#: Every SAMPLE_EVERY-th op of a lane is a candidate for the answer
#: check of range and k-NN results, up to SAMPLE_CAP of each per lane.
SAMPLE_EVERY = 7
SAMPLE_CAP = 150


def drive(
    execute,
    lane: Lane,
    tally,
    log: list,
    *,
    deadline: float | None = None,
    schedule: list[str] | None = None,
) -> None:
    """Run one closed-loop client until ``deadline`` or through ``schedule``.

    ``execute(op, keep)`` performs one op against the program and
    returns ``(latency_us, ok, why, applied, answer)``: ``applied`` says
    a write took effect (the model follows it even when its reply was
    wrong), and with ``keep`` set a query returns its answer points for
    the after-run check.  Every op is tallied individually; successful
    writes and kept answers go to ``log`` in issue order.
    """
    kept = lane.kept
    i = 0
    while True:
        if schedule is not None:
            if i >= len(schedule):
                return
            op = lane.next_op(schedule[i])
        else:
            if perf_counter() >= deadline:
                return
            op = lane.next_op()
        i += 1
        lane.issued += 1
        kind = op[0]
        keep = (
            kind in kept
            and lane.issued % SAMPLE_EVERY == 0
            and kept[kind] < SAMPLE_CAP
        )
        latency_us, ok, why, applied, answer = execute(op, keep)
        tally.record(kind, latency_us, ok, why)
        if applied:
            lane.commit(op)
            log.append(("w", kind, op[1]))
        if answer is not None:
            kept[kind] += 1
            log.append(("q", op, answer))


#: The timed window alternates this many main segments with side
#: segments, so both sample the same stretch of host behaviour.
CYCLES = 8


def alternate(run_main, run_side, seconds: float, cycles: int = CYCLES) -> list[float]:
    """Alternate ``run_main(deadline)`` and ``run_side()`` ``cycles`` times.

    ``run_main`` returns the number of ops it completed; the main
    segments together last ``seconds``.  Returns each main segment's
    throughput in ops/s.
    """
    rates = []
    for _ in range(cycles):
        t0 = perf_counter()
        ops = run_main(t0 + seconds / cycles)
        rates.append(ops / (perf_counter() - t0))
        run_side()
    return rates


def verify_log(oracle: Oracle, log: list, tally) -> int:
    """Replay ``log`` through ``oracle``; each wrong answer is a failed op.

    Returns the number of answers checked.
    """
    checked = 0
    for entry in log:
        if entry[0] == "w":
            oracle.write(entry[1], entry[2])
            continue
        op, answer = entry[1], entry[2]
        checked += 1
        if op[0] == "range":
            good = oracle.check_range(op[1], op[2], answer)
        else:
            good = oracle.check_knn(op[1], op[2], answer)
        if not good:
            tally.fail(f"wrong {op[0]} answer for {op[1:]}")
    return checked
