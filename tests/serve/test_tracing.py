"""End-to-end request tracing, SLO, and access-log tests against live servers.

These pin the tentpole acceptance criteria: every response carries a
trace id; ``GET /v1/traces/<id>`` resolves it to a complete
queue_wait -> batch_wait -> infer -> serialize waterfall whose stage
durations sum to within the measured request latency; an SLO breach
under overload flips ``/healthz`` to degraded; and every response emits
one structured ``http_access`` event.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.obs.reqtrace import TRACE_HEADER, WATERFALL_STAGES, build_waterfall
from repro.serve import MicroBatcher, ServeClient, ServeClientError

pytestmark = pytest.mark.serve


@pytest.fixture
def client(live_server):
    c = ServeClient(live_server.url)
    yield c
    c.close()


def _get_trace(client, trace_id: str, timeout_s: float = 2.0) -> dict:
    # traces.put also runs after the response flush; retry a 404 briefly.
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return client.trace(trace_id)
        except ServeClientError as exc:
            if exc.status != 404 or time.monotonic() >= deadline:
                raise
            time.sleep(0.005)


def _access_records(trace_id: str, timeout_s: float = 2.0) -> list[dict]:
    # The handler emits the access event *after* flushing the response,
    # so poll briefly: the client can outrun the handler thread's tail.
    deadline = time.monotonic() + timeout_s
    while True:
        found = [
            r
            for r in obs.get_event_log().records(kind="event", name="http_access")
            if r["attrs"].get("trace_id") == trace_id
        ]
        if found or time.monotonic() >= deadline:
            return found
        time.sleep(0.005)


class TestTraceEcho:
    def test_response_carries_trace_id_in_header_and_body(self, client, triangle):
        payload = ServeClient._payload([triangle], None, None)
        status, headers, body = client.request("POST", "/v1/predict", payload)
        assert status == 200
        import json

        parsed = json.loads(body)
        assert headers[TRACE_HEADER.lower()] == parsed["trace_id"]
        assert parsed["trace_id"] == client.last_trace_id

    def test_valid_supplied_id_is_adopted(self, client, triangle):
        client.predict([triangle], trace_id="deadbeefcafef00d")
        assert client.last_trace_id == "deadbeefcafef00d"

    def test_invalid_supplied_id_is_replaced(self, client, triangle):
        client.predict([triangle], trace_id="nope")
        assert client.last_trace_id != "nope"
        assert len(client.last_trace_id) == 16

    def test_error_responses_carry_trace_id_too(self, client, triangle):
        status, headers, body = client.request(
            "POST", "/v1/predict", {"graphs": "not-a-list"}
        )
        assert status == 400
        assert headers[TRACE_HEADER.lower()]
        assert b"trace_id" in body
        with pytest.raises(ServeClientError) as excinfo:
            client.predict([triangle], model="ghost", trace_id="feedfacefeedface")
        assert excinfo.value.status == 404
        assert client.last_trace_id == "feedfacefeedface"


class TestTraceEndpoint:
    def test_waterfall_is_complete_and_sums_within_latency(self, client, triangle):
        t0 = time.perf_counter()
        client.predict_proba([triangle])
        measured_s = time.perf_counter() - t0
        record = _get_trace(client, client.last_trace_id)
        assert record["status"] == 200
        assert record["endpoint"] == "predict_proba"
        assert record["model"] == "default"
        assert record["batch_id"]
        names = [s["name"] for s in record["spans"]]
        assert names == list(WATERFALL_STAGES)
        accounted = sum(s["duration_s"] for s in record["spans"])
        # Stage durations decompose the request: they can never exceed
        # the server-side total, which is itself within the client-side
        # measurement (client adds network + parse overhead on top).
        assert accounted <= record["duration_s"] + 1e-9
        assert record["duration_s"] <= measured_s + 1e-9
        offsets = [s["offset_s"] for s in record["spans"]]
        assert offsets == sorted(offsets)
        assert all(s["duration_s"] >= 0 for s in record["spans"])

    def test_unknown_trace_is_404(self, client):
        status, _, _ = client.request("GET", "/v1/traces/0123456789abcdef")
        assert status == 404

    def test_shed_request_is_traced_without_infer_stage(self, model_path, triangle):
        from repro.serve import ModelRegistry, ReproServer, ServeConfig

        registry = ModelRegistry(warm=False)
        registry.load(model_path)
        server = ReproServer(registry, ServeConfig(port=0, max_queue=1))
        server.start()
        entered = threading.Event()
        release = threading.Event()

        def blocking_infer(graphs):
            entered.set()
            assert release.wait(timeout=10.0)
            return np.full((len(graphs), 2), 0.5), {
                "model": "default", "version": 1, "classes": [0, 1],
            }

        batcher = MicroBatcher(blocking_infer, max_batch=1, max_wait_ms=0, max_queue=1)
        batcher.start()
        with server._batcher_lock:
            server._batchers["default"] = batcher
        try:
            # Park the worker, fill the queue, then observe one shed.
            payload = ServeClient._payload([triangle], None, None)
            background = []

            def send_one():
                ServeClient(server.url).request("POST", "/v1/predict", payload)

            t1 = threading.Thread(target=send_one, daemon=True)
            t1.start()
            background.append(t1)
            assert entered.wait(timeout=5.0)  # worker parked in infer
            t2 = threading.Thread(target=send_one, daemon=True)
            t2.start()
            background.append(t2)
            deadline = time.monotonic() + 5.0
            while batcher.depth() < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert batcher.depth() >= 1  # admission queue is full
            probe = ServeClient(server.url)
            status, _, _ = probe.request(
                "POST", "/v1/predict", payload, trace_id="feedbead12345678"
            )
            assert status == 429
            record = _get_trace(probe, "feedbead12345678")
            probe.close()
            assert record["status"] == 429
            assert "infer" not in [s["name"] for s in record["spans"]]
        finally:
            release.set()
            for t in background:
                t.join(timeout=5.0)
            server.stop()


class TestOfflineParity:
    def test_jsonl_reconstruction_matches_live_store(self, client, triangle):
        client.predict_proba([triangle], trace_id="0ff1ce0ff1ce0001")
        live = _get_trace(client, "0ff1ce0ff1ce0001")
        # The request span record lands in the event log just after the
        # trace-store entry; poll the reconstruction briefly too.
        deadline = time.monotonic() + 2.0
        rebuilt = None
        while rebuilt is None and time.monotonic() < deadline:
            rebuilt = build_waterfall(
                obs.get_event_log().records(), "0ff1ce0ff1ce0001"
            )
            if rebuilt is None:
                time.sleep(0.005)
        assert rebuilt is not None
        assert rebuilt["endpoint"] == live["endpoint"]
        assert rebuilt["model"] == live["model"]
        assert rebuilt["status"] == live["status"]
        assert rebuilt["batch_id"] == live["batch_id"]
        assert [s["name"] for s in rebuilt["spans"]] == [
            s["name"] for s in live["spans"]
        ]
        for offline, online in zip(rebuilt["spans"], live["spans"]):
            assert offline["duration_s"] == pytest.approx(
                online["duration_s"], abs=1e-6
            )

    def test_batch_span_links_fused_trace_ids(self, client, triangle):
        client.predict([triangle], trace_id="ba7c41d000000001")
        deadline = time.monotonic() + 2.0
        batch_spans: list = []
        while not batch_spans and time.monotonic() < deadline:
            batch_spans = [
                r
                for r in obs.get_event_log().records(kind="span", name="serve_batch")
                if "ba7c41d000000001" in (r["attrs"].get("links") or [])
            ]
            if not batch_spans:
                time.sleep(0.005)
        assert len(batch_spans) == 1
        live = _get_trace(client, "ba7c41d000000001")
        assert batch_spans[0]["attrs"]["batch_id"] == live["batch_id"]


class TestAccessLog:
    def test_predict_emits_structured_access_event(self, client, triangle):
        client.predict([triangle], trace_id="acce55ed00000001")
        (record,) = _access_records("acce55ed00000001")
        attrs = record["attrs"]
        assert attrs["method"] == "POST"
        assert attrs["path"] == "/v1/predict"
        assert attrs["status"] == 200
        assert attrs["duration_ms"] > 0

    def test_get_requests_logged_too(self, client):
        # Look the events up by trace id, not by counting: the event log
        # is a bounded ring, so once it is full a new record evicts an
        # old one and a count can stand still.
        for path, trace_id in (
            ("/healthz", "9e7a110000000001"),
            ("/metrics", "9e7a110000000002"),
        ):
            status, _, _ = client.request("GET", path, trace_id=trace_id)
            assert status == 200
            (record,) = _access_records(trace_id)
            assert record["attrs"]["path"] == path
            assert record["attrs"]["method"] == "GET"

    def test_errors_logged_with_status(self, client):
        status, headers, _ = client.request("POST", "/v1/nowhere", {})
        trace_id = headers[TRACE_HEADER.lower()]
        assert status == 404
        (record,) = _access_records(trace_id)
        assert record["attrs"]["status"] == 404


class TestHealthzSlo:
    def test_healthz_exposes_slo_and_resources(self, model_path):
        """Own server, so its SLO window starts empty: the shared live
        server's window may still be burning from earlier 4xx tests."""
        from repro.serve import ModelRegistry, ReproServer, ServeConfig

        registry = ModelRegistry(warm=False)
        registry.load(model_path)
        server = ReproServer(registry, ServeConfig(port=0)).start()
        client = ServeClient(server.url)
        try:
            body = client.healthz()
        finally:
            client.close()
            server.stop()
        assert body["status"] == "ok"
        assert body["slo"]["status"] == "ok"
        assert "objectives" in body["slo"] and "window" in body["slo"]
        assert body["resources"]["rss_bytes"] > 0
        assert body["config"]["slo_latency_p95_ms"] == 500.0

    def test_overload_breach_flips_healthz_degraded(self, model_path, triangle):
        """Open-loop overload: sheds spend error budget -> degraded."""
        from repro.serve import ModelRegistry, ReproServer, ServeConfig

        registry = ModelRegistry(warm=False)
        registry.load(model_path)
        server = ReproServer(
            registry,
            ServeConfig(
                port=0,
                max_queue=1,
                slo_error_rate_target=0.05,
                slo_min_samples=5,
                slo_window_s=60.0,
            ),
        )
        server.start()
        entered = threading.Event()
        release = threading.Event()

        def blocking_infer(graphs):
            entered.set()
            assert release.wait(timeout=15.0)
            return np.full((len(graphs), 2), 0.5), {
                "model": "default", "version": 1, "classes": [0, 1],
            }

        batcher = MicroBatcher(blocking_infer, max_batch=1, max_wait_ms=0, max_queue=1)
        batcher.start()
        with server._batcher_lock:
            server._batchers["default"] = batcher
        try:
            payload = ServeClient._payload([triangle], None, None)
            # Two requests park in worker + queue; the rest shed with 429
            # immediately (open-loop: offered load ignores completions).
            background = []

            def send_one():
                ServeClient(server.url).request("POST", "/v1/predict", payload)

            t1 = threading.Thread(target=send_one, daemon=True)
            t1.start()
            background.append(t1)
            assert entered.wait(timeout=5.0)  # worker parked in infer
            t2 = threading.Thread(target=send_one, daemon=True)
            t2.start()
            background.append(t2)
            deadline = time.monotonic() + 5.0
            while batcher.depth() < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert batcher.depth() >= 1  # admission queue is full
            probe = ServeClient(server.url)
            sheds = 0
            for _ in range(10):
                status, _, _ = probe.request("POST", "/v1/predict", payload)
                sheds += int(status == 429)
            assert sheds >= 8  # the flood was overwhelmingly shed
            health = probe.healthz()
            assert health["status"] == "degraded"
            assert any("errors" in b for b in health["slo"]["breaches"])
            assert "slo_degraded 1" in probe.metrics()
            assert server.slo.degraded
            probe.close()
        finally:
            release.set()
            for t in background:
                t.join(timeout=5.0)
            server.stop()


class TestResourceTelemetry:
    def test_metrics_carry_resource_gauges(self, client):
        client.healthz()  # any request; gauges are published at startup
        text = client.metrics()
        assert "resource_rss_bytes" in text
        assert "resource_peak_rss_bytes" in text
        assert "# HELP resource_rss_bytes" in text

    def test_sampler_refreshes_queue_depth(self, live_server):
        # The sampler's extra callback republishes the aggregate queue
        # depth on its cadence; with an idle server it must read 0.
        live_server._sampler.sample_once()
        assert obs.get_metrics().gauge("serve_queue_depth").value == 0.0
