"""The served workloads: a real ``repro serve`` process on loopback.

Each set-up launches the server with an empty tree, loads the
workload's points through ``POST /v1/bulk`` and ends when a ``/v1/get``
of a loaded point answers correctly.  The last set-up's server is then
driven by closed-loop clients, one keep-alive connection each, with no
sleeps or throttles, and scraped (``/health``, ``/stats``, ``/metrics``,
the WAL file, ``/proc``) before it is stopped.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from time import perf_counter

from client import Connection
from opstream import CYCLES, Lane, Mix, Oracle, alternate, drive, verify_log
from stats import Tally

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class ServedSpec:
    """One served workload (see README.md for why each exists)."""

    name: str
    server_args: list[str]
    main_mix: Mix
    main_clients: int
    #: Kinds the main mix leaves out, issued in the side segments.
    side_kinds: list[str]
    side_clients: int
    side_mix: Mix
    durable: bool = False


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One ``repro serve`` process, optionally under the traced launcher."""

    def __init__(self, root: str, workdir: str, args: list[str], spans: str | None = None):
        self.port = free_port()
        self.spans = spans
        self.log_path = os.path.join(workdir, f"server-{self.port}.log")
        serve = ["serve", "--n", "0", "--port", str(self.port), *args]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_serve.py"), spans, *serve]
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # One string-hash layout for every server process, so dict and
        # set layouts do not differ from launch to launch.
        env["PYTHONHASHSEED"] = "0"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=self._log
        )

    def wait_ready(self, timeout: float = 60.0) -> Connection:
        """Poll until ``/health`` answers 200; return the open connection."""
        deadline = perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self.log_tail()}")
            try:
                conn = Connection(self.port)
                status, _ = conn.request("GET", "/health")
                if status == 200:
                    return conn
                conn.close()
            except OSError:
                pass
            if perf_counter() > deadline:
                raise RuntimeError(f"server not ready in {timeout}s:\n{self.log_tail()}")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def log_tail(self) -> str:
        self._log.flush()
        with open(self.log_path, "rb") as fh:
            return fh.read()[-2000:].decode(errors="replace")

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def get_json(conn: Connection, path: str) -> tuple[int, object]:
    status, body = conn.request("GET", path)
    return status, json.loads(body) if path != "/metrics" else body.decode()


# -- op execution over HTTP --------------------------------------------


def _execute_http(conn: Connection):
    dumps = json.dumps
    loads = json.loads

    def execute(op: tuple, keep: bool):
        kind = op[0]
        if kind == "get":
            path, body = "/v1/get", {"point": op[1]}
        elif kind == "insert":
            path, body = "/v1/insert", {"point": op[1], "value": op[2]}
        elif kind == "delete":
            path, body = "/v1/delete", {"point": op[1]}
        elif kind == "range":
            path, body = "/v1/range", {"lows": op[1], "highs": op[2]}
        else:
            path, body = "/v1/knn", {"point": op[1], "k": op[2]}
        raw = dumps(body).encode()
        t0 = perf_counter()
        try:
            status, reply = conn.request("POST", path, raw)
        except OSError as exc:
            latency = (perf_counter() - t0) * 1e6
            conn.connect()
            return latency, False, f"{kind}: {exc!r}", False, None
        latency = (perf_counter() - t0) * 1e6
        if kind == "get":
            ok = status == 200 and loads(reply)["value"] == op[2]
            return latency, ok, f"get {op[1]} -> {status} {reply[:80]!r}", False, None
        if kind == "insert":
            ok = status == 201
            return latency, ok, f"insert {op[1]} -> {status} {reply[:80]!r}", ok, None
        if kind == "delete":
            applied = status == 200
            ok = applied and loads(reply)["value"] == op[2]
            return latency, ok, f"delete {op[1]} -> {status} {reply[:80]!r}", applied, None
        if status != 200:
            return latency, False, f"{kind} {op[1:]} -> {status} {reply[:80]!r}", False, None
        answer = None
        if keep:
            data = loads(reply)
            rows = data["records"] if kind == "range" else data["neighbours"]
            answer = [tuple(r["point"]) for r in rows]
        return latency, True, "", False, answer

    return execute


def _run_clients(conns: list[Connection], lanes: list[Lane], log: list, **how) -> Tally:
    """Drive each lane on its own connection and thread until done.

    The returned tally's ``cpu_s`` is the CPU time the client threads
    spent, in the benchmark's own code and the kernel's socket calls.
    """
    tallies = [Tally() for _ in lanes]
    errors: list[BaseException] = []

    def worker(i: int) -> None:
        try:
            t0 = time.thread_time()
            drive(_execute_http(conns[i]), lanes[i], tallies[i], log, **how)
            tallies[i].cpu_s += time.thread_time() - t0
        except BaseException as exc:  # reported after join
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(lanes))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    tally = Tally()
    for t in tallies:
        tally.merge(t)
    return tally


def _sum_count(metrics_text: str, name: str) -> tuple[float, float]:
    """A Prometheus histogram's ``_sum`` and ``_count``."""
    total = count = 0.0
    for line in metrics_text.splitlines():
        if line.startswith(name + "_sum "):
            total = float(line.split()[1])
        elif line.startswith(name + "_count "):
            count = float(line.split()[1])
    return total, count


def window_mean(before: str, after: str, name: str) -> float:
    """Mean of a histogram's observations between two scrapes."""
    (s0, c0), (s1, c1) = _sum_count(before, name), _sum_count(after, name)
    return (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0


# -- one served workload run -------------------------------------------


def make_lanes(spec: ServedSpec, seed: int, loaded: list, extra: list) -> tuple[list[Lane], list[Lane]]:
    """Main and side lanes.

    Write lanes own disjoint slices of the keys.  When the main mix is
    read-only, the side writers own every fifth loaded point and the
    main lane reads only the others, so its gets never meet a key a
    side segment deleted.
    """
    values = {p: i for i, p in enumerate(loaded)}
    main_writes = spec.main_mix.insert + spec.main_mix.delete > 0
    writable = loaded if main_writes else loaded[::5]
    readable = loaded if main_writes else [p for i, p in enumerate(loaded) if i % 5]

    def lanes(mix: Mix, clients: int, base: int) -> list[Lane]:
        writes = mix.insert + mix.delete > 0
        out = []
        for c in range(clients):
            mine = writable[c::clients] if writes else readable
            out.append(Lane(
                seed * 1000 + base + c,
                mix,
                {p: values[p] for p in mine},
                extra[c::clients] if writes else (),
                first_value=(base + c + 1) << 32,
            ))
        return out

    return (
        lanes(spec.main_mix, spec.main_clients, 0),
        lanes(spec.side_mix, spec.side_clients, 100),
    )


def side_schedule(spec: ServedSpec, per_kind: int) -> list[str]:
    """One side client's kinds for one side segment, alternating.

    Over all segments and clients each side kind is issued at least
    ``per_kind`` times.
    """
    each = -(-per_kind // (spec.side_clients * CYCLES))
    return [k for _ in range(each) for k in spec.side_kinds]


def measure_served(
    spec: ServedSpec,
    server: Server,
    conn: Connection,
    seed: int,
    loaded: list,
    extra: list,
    seconds: float,
    side_per_kind: int,
    durable_dir: str | None,
) -> dict:
    """Timed window (main and side segments), scrape, answer checks."""
    main, side = make_lanes(spec, seed, loaded, extra)
    _, health0 = get_json(conn, "/health")
    _, stats0 = get_json(conn, "/stats")
    _, metrics0 = get_json(conn, "/metrics")
    wal_path = os.path.join(durable_dir, "wal.log") if durable_dir else None
    wal0 = os.path.getsize(wal_path) if wal_path else 0
    log: list = []
    tally, side_tally = Tally(), Tally()
    main_conns = [Connection(server.port) for _ in main]
    side_conns = [Connection(server.port) for _ in side]
    schedule = side_schedule(spec, side_per_kind)

    def main_segment(deadline: float) -> int:
        segment = _run_clients(main_conns, main, log, deadline=deadline)
        tally.merge(segment)
        return segment.ops()

    w0 = perf_counter()
    try:
        rates = alternate(
            main_segment,
            lambda: side_tally.merge(
                _run_clients(side_conns, side, log, schedule=schedule)
            ),
            seconds,
        )
    finally:
        for c in main_conns + side_conns:
            c.close()
    w1 = perf_counter()
    health_status, health = get_json(conn, "/health")
    _, stats = get_json(conn, "/stats")
    _, metrics = get_json(conn, "/metrics")
    wal1 = os.path.getsize(wal_path) if wal_path else 0
    rss = server.peak_rss_mb()
    # Host speed in the main window, from the benchmark's own client code.
    client_cpu_us = tally.cpu_s * 1e6 / tally.ops()
    tally.merge(side_tally)

    oracle = Oracle(loaded + extra, loaded)
    checked = verify_log(oracle, log, tally)
    problems = []
    if health_status != 200 or health.get("status") != "ok":
        problems.append(f"/health is {health_status} {health}")
    if stats["records"] != oracle.count():
        problems.append(f"/stats.records {stats['records']} != model {oracle.count()}")
    pages = {
        kind: window_mean(metrics0, metrics, f"repro_serve_{kind}_pages")
        for kind in ("get", "range", "knn")
    }
    lo, hi = sorted((health0["height"] + 1, health["height"] + 1))
    if not lo <= pages["get"] <= hi:
        problems.append(f"mean get pages {pages['get']} outside height+1 [{lo}, {hi}]")
    writes = tally.count("insert") + tally.count("delete")
    batcher = stats.get("batcher") or {}
    return {
        "tally": tally,
        "throughput": statistics.median(rates),
        "rss_mb": rss,
        "window": (w0, w1),
        "pages": pages,
        "client_cpu_us": client_cpu_us,
        "checked": checked,
        "problems": problems,
        "counters": {
            "server.batch_ops_per_commit": (
                batcher["ops"] / batcher["batches"] if batcher.get("batches") else 0.0
            ),
            "concurrency.committed_pages": float(stats["committed_pages"]),
            "storage.wal_bytes_per_op": (wal1 - wal0) / writes if writes and wal_path else 0.0,
            "storage.wal_appends_per_op": (
                (stats["wal_seq"] - stats0["wal_seq"]) / writes
                if writes and wal_path else 0.0
            ),
        },
    }


def launch_loaded(
    spec: ServedSpec,
    root: str,
    workdir: str,
    tag: str,
    body: bytes,
    probe: tuple,
    spans: str | None = None,
) -> tuple[Server, Connection, float, str | None]:
    """Launch, bulk-load and answer one get; returns the set-up seconds."""
    durable_dir = os.path.join(workdir, f"store-{tag}") if spec.durable else None
    args = list(spec.server_args)
    if durable_dir:
        args += ["--durable", durable_dir, "--sync", "os"]
    probe_body = json.dumps({"point": probe}).encode()
    t0 = perf_counter()
    server = Server(root, workdir, args, spans=spans)
    try:
        conn = server.wait_ready()
        status, reply = conn.request("POST", "/v1/bulk", body)
        if status != 201:
            raise RuntimeError(f"bulk load failed: {status} {reply[:200]!r}")
        status, reply = conn.request("POST", "/v1/get", probe_body)
        elapsed = perf_counter() - t0
        if status != 200 or json.loads(reply)["value"] != 0:
            raise RuntimeError(f"first get wrong: {status} {reply[:200]!r}")
    except BaseException:
        server.stop()
        raise
    return server, conn, elapsed, durable_dir


def stop_server(server: Server, conn: Connection, durable_dir: str | None) -> None:
    conn.close()
    server.stop()
    if durable_dir:
        shutil.rmtree(durable_dir, ignore_errors=True)
