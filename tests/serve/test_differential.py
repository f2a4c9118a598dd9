"""Differential serving harness: every new path equals the old path bitwise.

Serving v2 added two independent axes of freedom — the wire codec
(JSON vs. binary CSR) and the inference backend (in-thread vs. process
pool) — and both are gated here against the original single-thread JSON
path, which the repo's earlier PRs proved bitwise batch-composition
invariant.  The contract: for any batch size in 1..max_batch, any pool
worker count in {1, 2, 4}, and both endpoints, all combinations return
the *same bytes-for-bytes numbers*.  If a refactor ever breaks fusion
order, tensor packing, or float serialization, one of these asserts goes
red before any user traffic does.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import ModelRegistry, ReproServer, ServeConfig
from repro.serve.client import ServeClient
from repro.serve.pool import InferencePool


@pytest.fixture(scope="module")
def pool_servers(model_path):
    """One in-thread server plus pool servers at 1/2/4 workers (each
    with as many drainer threads as pool processes, as the CLI runs)."""
    servers = {}
    registry = ModelRegistry()
    registry.load(model_path)
    thread_server = ReproServer(
        registry, ServeConfig(port=0, max_batch=16, max_wait_ms=1.0, max_queue=64)
    ).start()
    servers["thread"] = thread_server
    for workers in (1, 2, 4):
        reg = ModelRegistry()
        reg.load(model_path)
        servers[f"pool{workers}"] = ReproServer(
            reg,
            ServeConfig(
                port=0,
                max_batch=16,
                max_wait_ms=1.0,
                max_queue=64,
                backend="pool",
                workers=workers,
            ),
        ).start()
    yield servers
    for server in servers.values():
        server.stop()


class TestCodecDifferential:
    """Binary-codec responses bitwise-equal JSON-codec responses."""

    @pytest.mark.parametrize("endpoint", ["predict", "predict_proba"])
    def test_binary_equals_json_all_batch_sizes(
        self, pool_servers, train_data, endpoint
    ):
        graphs, _ = train_data
        url = pool_servers["thread"].url
        json_client = ServeClient(url, codec="json")
        binary_client = ServeClient(url, codec="binary")
        try:
            for size in range(1, 13):  # 12 training graphs available
                batch = graphs[:size]
                call = getattr(json_client, endpoint)
                json_out = call(batch)
                binary_out = getattr(binary_client, endpoint)(batch)
                assert np.array_equal(json_out, binary_out), (
                    f"codec divergence at batch size {size} on {endpoint}"
                )
                assert json_out.dtype == binary_out.dtype
        finally:
            json_client.close()
            binary_client.close()

    @given(data=st.data())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_binary_equals_json_random_batches(
        self, pool_servers, train_data, data
    ):
        graphs, _ = train_data
        indices = data.draw(
            st.lists(st.integers(0, len(graphs) - 1), min_size=1, max_size=16)
        )
        batch = [graphs[i] for i in indices]
        url = pool_servers["thread"].url
        json_client = ServeClient(url, codec="json")
        binary_client = ServeClient(url, codec="binary")
        try:
            assert np.array_equal(
                json_client.predict_proba(batch),
                binary_client.predict_proba(batch),
            )
        finally:
            json_client.close()
            binary_client.close()


class TestBackendDifferential:
    """Pool backend bitwise-equal to the in-thread backend."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("endpoint", ["predict", "predict_proba"])
    def test_pool_equals_thread_all_batch_sizes(
        self, pool_servers, train_data, workers, endpoint
    ):
        graphs, _ = train_data
        thread_client = ServeClient(pool_servers["thread"].url)
        pool_client = ServeClient(pool_servers[f"pool{workers}"].url)
        try:
            for size in (1, 2, 3, 7, 12):
                batch = graphs[:size]
                expected = getattr(thread_client, endpoint)(batch)
                actual = getattr(pool_client, endpoint)(batch)
                assert np.array_equal(expected, actual), (
                    f"backend divergence at {workers} workers, "
                    f"batch size {size}, {endpoint}"
                )
        finally:
            thread_client.close()
            pool_client.close()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pool_equals_thread_binary_codec(
        self, pool_servers, train_data, workers
    ):
        """Both axes at once: pool backend driven through the binary codec."""
        graphs, _ = train_data
        thread_client = ServeClient(pool_servers["thread"].url, codec="json")
        pool_client = ServeClient(
            pool_servers[f"pool{workers}"].url, codec="binary"
        )
        try:
            assert np.array_equal(
                thread_client.predict_proba(graphs),
                pool_client.predict_proba(graphs),
            )
        finally:
            thread_client.close()
            pool_client.close()


class TestWorkersKnob:
    """``ServeConfig.workers`` sizes the drainers and the pool alike."""

    def test_workers_sizes_drainers_and_pool(self, pool_servers, train_data):
        graphs, _ = train_data
        client = ServeClient(pool_servers["pool2"].url)
        try:
            client.predict_proba(graphs[:1])
            health = client.healthz()
        finally:
            client.close()
        assert health["batchers"]["default"]["workers"] == 2
        assert health["backend"]["pool"]["workers"] == 2


class TestPoolDirectDifferential:
    """InferencePool.submit == model.predict_proba without HTTP in the way."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pool_submit_bitwise(self, serve_model, model_path, train_data, workers):
        graphs, _ = train_data
        expected_proba = serve_model.predict_proba(graphs)
        expected_pred = serve_model.predict(graphs)
        pool = InferencePool(model_path, workers=workers).start()
        try:
            for size in range(1, len(graphs) + 1):
                out = pool.submit(graphs[:size], op="predict_proba")
                assert np.array_equal(out, expected_proba[:size])
            assert np.array_equal(
                pool.submit(graphs, op="predict"), expected_pred
            )
        finally:
            pool.stop()
