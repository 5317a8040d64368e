"""``repro serve --durable`` end to end, in a child process.

The server bulk-loads its records into the durable store, serves them,
and on Ctrl-C (SIGINT) checkpoints and closes the store, so the
directory reopens with every record.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import repro
from repro.storage.durable import open_durable_tree


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def health(port):
    url = f"http://127.0.0.1:{port}/health"
    try:
        with urllib.request.urlopen(url, timeout=2) as response:
            return json.loads(response.read())
    except (urllib.error.URLError, ConnectionError, OSError):
        return None


def test_durable_serve_loads_serves_and_closes(tmp_path):
    directory = tmp_path / "store"
    port = free_port()
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--durable", str(directory), "--n", "300",
            "--port", str(port),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60
        status = None
        while time.monotonic() < deadline and proc.poll() is None:
            status = health(port)
            if status is not None:
                break
            time.sleep(0.1)
        assert status is not None, "the server never answered /health"
        assert status["records"] == 300
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, stderr.decode()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    tree, _ = open_durable_tree(directory, sync="os")
    try:
        assert tree.count == 300
    finally:
        tree.store.close()
