#!/usr/bin/env python
"""End-to-end smoke test for the `repro serve` CLI.

Exercises the path no in-process test covers: the real console
entrypoint as a subprocess.  Trains a tiny model, saves it, boots
``python -m repro serve --model ... --port 0``, parses the ephemeral
port from the startup contract line, performs one predict round-trip
plus a /healthz and /metrics scrape, checks that the median of 20
keep-alive single-graph round trips stays under 30 ms (a Nagle stall
costs >= 40 ms each), then sends SIGINT and checks the process shuts
down cleanly with exit code 0.

Run from the repository root (scripts/test-tiers.sh serve does):

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.core import deepmap_wl, save_model  # noqa: E402
from repro.graph import ensure_connected, erdos_renyi  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

STARTUP_RE = re.compile(r"listening on (http://[\d.]+:\d+)")

#: A response stalled by Nagle's algorithm waits for the client's
#: delayed ACK, >= 40 ms; a served tiny graph takes a few ms.
ROUND_TRIP_CEILING_MS = 30.0
ROUND_TRIPS = 20


def median_round_trip_ms(client: ServeClient, graph) -> float:
    """Median wall time of keep-alive single-graph predict_proba calls."""
    client.predict_proba([graph])  # warm the connection and the batcher
    samples = []
    for _ in range(ROUND_TRIPS):
        start = time.perf_counter()
        client.predict_proba([graph])
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def make_model_file(directory: str) -> tuple[str, list]:
    rng = np.random.default_rng(7)
    graphs, labels = [], []
    for i in range(10):
        g = ensure_connected(erdos_renyi(8, 0.25 if i % 2 == 0 else 0.6, rng), rng)
        graphs.append(g.with_labels((np.arange(8) % 3).tolist()))
        labels.append(i % 2)
    model = deepmap_wl(h=1, r=3, epochs=3, seed=0).fit(graphs, np.array(labels))
    path = os.path.join(directory, "smoke-model.pkl")
    save_model(model, path)
    return path, graphs


def wait_for_startup(proc: subprocess.Popen, timeout_s: float = 60.0) -> str:
    deadline = time.monotonic() + timeout_s
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited before startup (rc={proc.poll()}): "
                f"{proc.stderr.read() if proc.stderr else ''}"
            )
        sys.stdout.write(f"  server: {line}")
        match = STARTUP_RE.search(line)
        if match:
            return match.group(1)
    raise SystemExit("timed out waiting for the startup line")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        print("training + saving a tiny model...")
        model_path, graphs = make_model_file(tmp)

        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), "..", "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--model",
            model_path,
            "--port",
            "0",
            "--max-batch",
            "8",
            "--max-wait-ms",
            "2",
        ]
        print(f"spawning: {' '.join(cmd)}")
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            url = wait_for_startup(proc)
            client = ServeClient(url)
            try:
                health = client.healthz()
                assert health["status"] == "ok", health
                labels = client.predict(graphs[:3])
                assert labels.shape == (3,), labels
                proba = client.predict_proba(graphs[:3])
                assert proba.shape[0] == 3 and np.allclose(proba.sum(axis=1), 1.0)
                metrics = client.metrics()
                assert "serve_batch_size" in metrics
                assert "serve_requests_shed_total" in metrics
                median_ms = median_round_trip_ms(client, graphs[0])
                print(f"median single-graph round trip: {median_ms:.2f} ms")
                assert median_ms < ROUND_TRIP_CEILING_MS, (
                    f"median round trip {median_ms:.1f} ms >= "
                    f"{ROUND_TRIP_CEILING_MS} ms: a Nagle/delayed-ACK stall?"
                )
            finally:
                client.close()
            print("round-trip ok; sending SIGINT")
            proc.send_signal(signal.SIGINT)
            rc = proc.wait(timeout=30)
            if rc != 0:
                print(f"FAIL: server exited with rc={rc}")
                print(proc.stderr.read() if proc.stderr else "")
                return 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    print("serve smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
