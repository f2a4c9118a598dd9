"""Pool-worker fault injection: bounded respawn, then graceful degradation.

Workers are killed (``os._exit``) or blown up (``InjectedFault``) via the
``REPRO_FAULTS`` DSL at the ``pool_worker`` injection point, which
matches on job ids.  The invariants under attack:

* a death mid-job is retried on a fresh worker — the caller still gets
  the bitwise-correct answer and never sees the crash;
* each death burns one respawn from a bounded budget; exhausting it
  flips the pool to *degraded* — no more processes are spawned, every
  subsequent ``submit`` raises ``PoolError``, the server runs the batch
  in-thread instead, and ``/healthz`` reports ``degraded``;
* degradation is a soft failure: responses stay correct throughout.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.resilience import faults
from repro.serve import ModelRegistry, ReproServer, ServeConfig
from repro.serve.client import ServeClient
from repro.serve.pool import FAULT_POINT, InferencePool, PoolError


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Starts a two-worker pool, runs a few batches, stops it, and reports
#: whether anything started multiprocessing's resource tracker.
_POOL_RUN = """
import sys
from multiprocessing import resource_tracker
import numpy as np
from repro.graph import ensure_connected, erdos_renyi
from repro.serve.pool import InferencePool

rng = np.random.default_rng(0)
graphs = [
    ensure_connected(erdos_renyi(8, 0.4, rng), rng).with_labels([i % 3 for i in range(8)])
    for _ in range(6)
]
pool = InferencePool(sys.argv[1], workers=2).start()
try:
    for size in (1, 3, 6):
        assert pool.submit(graphs[:size]).shape[0] == size
finally:
    pool.stop()
print("tracker_started", resource_tracker._resource_tracker._pid is not None)
"""


def _kill_jobs(indices, tmp_path, mode="kill"):
    spec = ",".join(f"{mode}@{FAULT_POINT}:{i}" for i in indices)
    faults.install(spec, state_dir=tmp_path)


class TestRespawn:
    def test_kill_respawns_and_answers_correctly(
        self, serve_model, model_path, train_data, tmp_path
    ):
        graphs, _ = train_data
        expected = serve_model.predict_proba(graphs)
        _kill_jobs([0], tmp_path)
        pool = InferencePool(model_path, workers=2).start()
        try:
            out = pool.submit(graphs, op="predict_proba")
            assert np.array_equal(out, expected)
            assert pool.respawns == 1
            assert not pool.degraded
            # Subsequent jobs run clean on the respawned worker.
            assert np.array_equal(
                pool.submit(graphs[:3], op="predict_proba"), expected[:3]
            )
            assert pool.respawns == 1
        finally:
            pool.stop()

    def test_injected_raise_also_burns_a_respawn(
        self, serve_model, model_path, train_data, tmp_path
    ):
        """InjectedFault is a BaseException: it must escape the worker's
        per-job error handling and kill the process, not turn into an
        ``ok: false`` reply."""
        graphs, _ = train_data
        _kill_jobs([0], tmp_path, mode="raise")
        pool = InferencePool(model_path, workers=1).start()
        try:
            out = pool.submit(graphs[:2], op="predict_proba")
            assert np.array_equal(out, serve_model.predict_proba(graphs[:2]))
            assert pool.respawns == 1
        finally:
            pool.stop()


class TestDegradation:
    def test_degraded_without_fallback_raises_pool_error(
        self, model_path, train_data, tmp_path
    ):
        graphs, _ = train_data
        _kill_jobs(range(8), tmp_path)
        pool = InferencePool(model_path, workers=1, max_respawns=1).start()
        try:
            with pytest.raises(PoolError, match="degraded"):
                pool.submit(graphs[:2])
            assert pool.degraded
        finally:
            pool.stop()


class TestServerDegradation:
    def test_healthz_reports_degraded_and_serving_continues(
        self, serve_model, model_path, train_data, tmp_path
    ):
        """End to end: pool workers keep dying -> server degrades to
        in-thread execution, stays correct, and /healthz says so."""
        graphs, _ = train_data
        expected = serve_model.predict_proba(graphs)
        _kill_jobs(range(10), tmp_path)
        registry = ModelRegistry()
        registry.load(model_path)
        server = ReproServer(
            registry,
            ServeConfig(
                port=0,
                max_batch=16,
                max_wait_ms=1.0,
                backend="pool",
                workers=1,
                pool_max_respawns=2,
            ),
        ).start()
        client = ServeClient(server.url)
        try:
            out = client.predict_proba(graphs)
            assert np.array_equal(out, expected), "degraded answer diverged"
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["backend"]["pool"]["degraded"] is True
            # Still serving, still bitwise-correct, after degradation.
            assert np.array_equal(client.predict_proba(graphs[:5]), expected[:5])
        finally:
            client.close()
            server.stop()

    def test_single_kill_stays_healthy(
        self, serve_model, model_path, train_data, tmp_path
    ):
        graphs, _ = train_data
        _kill_jobs([0], tmp_path)
        registry = ModelRegistry()
        registry.load(model_path)
        server = ReproServer(
            registry,
            ServeConfig(
                port=0, max_batch=16, max_wait_ms=1.0,
                backend="pool", workers=2,
            ),
        ).start()
        client = ServeClient(server.url)
        try:
            out = client.predict_proba(graphs)
            assert np.array_equal(out, serve_model.predict_proba(graphs))
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["backend"]["pool"]["respawns"] == 1
            assert health["backend"]["pool"]["degraded"] is False
        finally:
            client.close()
            server.stop()


class TestCleanExit:
    def test_pool_run_leaves_no_resource_tracker_warnings(self, model_path):
        """A pool run must not touch tracked IPC resources: workers that
        attach to a parent-owned shared-memory segment make
        ``resource_tracker`` warn about it on stderr at interpreter exit
        whenever the tracker was not already running before the fork.
        The pipe transport never starts the tracker at all."""
        proc = subprocess.run(
            [sys.executable, "-c", _POOL_RUN, str(model_path)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "tracker_started False" in proc.stdout
