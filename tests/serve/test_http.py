"""HTTP front-end tests: endpoints, status-code contract, metrics.

The acceptance property lives here too: concurrent single-graph requests
against a live server return probabilities *bitwise identical* to an
in-process ``predict_proba`` — JSON's shortest-repr float encoding
round-trips exactly, so not even the wire blurs the comparison.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.reqtrace import TRACE_HEADER
from repro.cli import main
from repro.serve import (
    MicroBatcher,
    ModelRegistry,
    ReproServer,
    ServeClient,
    ServeClientError,
    ServeConfig,
)
from repro.serve.codec import decode_predict_response, encode_predict_request
from tests.conftest import random_graphs

pytestmark = pytest.mark.serve


@pytest.fixture
def client(live_server):
    c = ServeClient(live_server.url)
    yield c
    c.close()


class SendRecorder:
    """Proxy for an accepted socket that records every ``sendall``."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.sends: list[bytes] = []
        self.nodelay: int | None = None

    def sendall(self, data) -> None:
        self.sends.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def record_connections(server, monkeypatch) -> list[SendRecorder]:
    """Wrap every connection ``server`` accepts from now on in a recorder."""
    handler_cls = server._httpd.RequestHandlerClass
    real_setup = handler_cls.setup
    recorders: list[SendRecorder] = []

    def setup(handler) -> None:
        handler.request = SendRecorder(handler.request)
        real_setup(handler)
        handler.request.nodelay = handler.connection.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY
        )
        recorders.append(handler.request)

    monkeypatch.setattr(handler_cls, "setup", setup)
    return recorders


def split_single_send(sends: list[bytes], status: int, body: bytes) -> dict:
    """Assert ``sends`` is one whole response; return its headers."""
    assert len(sends) == 1, [s[:60] for s in sends]
    head, blank, payload = sends[0].partition(b"\r\n\r\n")
    assert blank and payload == body
    status_line, *lines = head.decode().split("\r\n")
    assert status_line.startswith(f"HTTP/1.1 {status} ")
    headers = dict(line.split(": ", 1) for line in lines)
    assert headers["Content-Length"] == str(len(body))
    return headers


class TestEndpoints:
    def test_healthz(self, client, live_server):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0
        models = {m["name"]: m for m in body["models"]}
        assert models["default"]["feature_map"] == "wl"
        assert body["config"]["max_batch"] == 16

    def test_predict_proba_matches_in_process_bitwise(
        self, client, serve_model, train_data
    ):
        graphs, _ = train_data
        remote = client.predict_proba(graphs)
        local = serve_model.predict_proba(graphs)
        np.testing.assert_array_equal(remote, local)

    def test_predict_labels_are_argmax_of_proba(self, client, serve_model, train_data):
        graphs, _ = train_data
        labels = client.predict(graphs)
        proba = serve_model.predict_proba(graphs)
        classes = np.asarray(serve_model.classes_)
        np.testing.assert_array_equal(labels, classes[np.argmax(proba, axis=1)])

    def test_metrics_exposes_serving_surface(self, client, train_data):
        graphs, _ = train_data
        client.predict_proba(graphs[:2])
        text = client.metrics()
        assert "serve_queue_depth" in text
        assert 'serve_batch_size_bucket{le="1"}' in text
        assert "serve_requests_shed_total" in text
        assert "serve_deadline_expired_total" in text
        assert "serve_request_seconds_count" in text
        assert "text/plain" in self._metrics_content_type(client)

    @staticmethod
    def _metrics_content_type(client) -> str:
        status, headers, _ = client.request("GET", "/metrics")
        assert status == 200
        return headers["content-type"]

    def test_metrics_present_before_any_request(self, model_path):
        from repro.serve import ModelRegistry, ReproServer, ServeConfig

        registry = ModelRegistry(warm=False)
        registry.load(model_path)
        with ReproServer(registry, ServeConfig(port=0)) as server:
            text = ServeClient(server.url).metrics()
        # The metrics registry is process-global, so other tests may have
        # already moved these series; what start() guarantees is that the
        # full serving surface is *registered* before the first request.
        assert "serve_requests_shed_total" in text
        assert "serve_queue_depth" in text
        assert "serve_batch_size_count" in text
        assert "serve_deadline_expired_total" in text
        assert "serve_request_seconds_count" in text


class TestServeConfig:
    """Bad batcher settings fail at construction, not as a 500 per request."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -1},
            {"max_batch": 0},
            {"max_queue": 0},
            {"max_wait_ms": -1},
        ],
    )
    def test_bad_batcher_settings_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ServeConfig(**kwargs)

    def test_cli_exits_2_before_binding(self, model_path, monkeypatch, capsys):
        def refuse_start(self):
            raise AssertionError("server started despite a bad --max-batch")

        monkeypatch.setattr(ReproServer, "start", refuse_start)
        argv = ["serve", "--model", str(model_path), "--port", "0", "--max-batch", "0"]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "max_batch must be >= 1" in out
        assert "listening on" not in out


class TestStatusContract:
    def test_malformed_body_is_400(self, client):
        status, _, body = client.request(
            "POST", "/v1/predict", {"graphs": [], "model": "default"}
        )
        assert status == 400
        assert "error" in json.loads(body)

    def test_unknown_model_is_404(self, client, triangle):
        with pytest.raises(ServeClientError) as exc_info:
            client.predict([triangle], model="missing")
        assert exc_info.value.status == 404

    def test_unknown_path_is_404(self, client):
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("POST", "/v1/nope", {"graphs": []})[0] == 404

    def test_stopped_batcher_is_503(self, live_server, client, triangle):
        stopped = MicroBatcher(lambda graphs: (np.zeros((len(graphs), 2)), {}))
        with live_server._batcher_lock:
            live_server._batchers["dead"] = stopped
        try:
            live_server.registry._latest["dead"] = 1
            live_server.registry._slots["dead"] = {
                1: live_server.registry.get("default")
            }
            with pytest.raises(ServeClientError) as exc_info:
                client.predict([triangle], model="dead")
            assert exc_info.value.status == 503
        finally:
            with live_server._batcher_lock:
                live_server._batchers.pop("dead", None)
            live_server.registry._latest.pop("dead", None)
            live_server.registry._slots.pop("dead", None)


class TestTransport:
    """Socket behaviour: no Nagle stall, one write per response.

    A response split over two segments (headers, then body) on a socket
    with Nagle's algorithm on waits for the peer's delayed ACK, ~40 ms a
    request; these pin both halves of the fix.
    """

    def test_accepted_connection_sets_tcp_nodelay(self, live_server, monkeypatch):
        recorders = record_connections(live_server, monkeypatch)
        client = ServeClient(live_server.url)
        try:
            client.healthz()
        finally:
            client.close()
        (conn,) = recorders
        assert conn.nodelay

    def test_every_response_is_one_sendall(
        self, live_server, monkeypatch, triangle
    ):
        recorders = record_connections(live_server, monkeypatch)
        client = ServeClient(live_server.url)
        json_request = ServeClient._payload([triangle], None, None)
        cases = [
            ("POST", "/v1/predict_proba", json_request, 200),
            ("POST", "/v1/predict_proba", encode_predict_request([triangle]), 200),
            ("GET", "/metrics", None, 200),
            ("GET", "/nope", None, 404),
        ]
        try:
            client.healthz()  # opens the keep-alive connection
            (conn,) = recorders
            for i, (method, path, payload, want) in enumerate(cases):
                trace_id = f"0e5e4d00000000{i:02d}"
                before = len(conn.sends)
                status, headers, body = client.request(
                    method, path, payload, trace_id=trace_id
                )
                assert status == want
                assert len(recorders) == 1  # still the same connection
                sent = split_single_send(conn.sends[before:], status, body)
                assert sent[TRACE_HEADER] == headers[TRACE_HEADER.lower()] == trace_id
                if isinstance(payload, bytes):
                    assert decode_predict_response(body)["trace_id"] == trace_id
                elif path != "/metrics":
                    assert json.loads(body)["trace_id"] == trace_id
        finally:
            client.close()
        # Error bodies are byte-for-byte what they always were.
        assert body == json.dumps(
            {"error": "no such path: /nope", "trace_id": trace_id}
        ).encode()


def raw_post(server, content_length: str, timeout_s: float = 3.0):
    """POST a bare header block over a raw socket; return the parsed reply.

    No body is sent.  Returns ``(status, headers, body, closed)``, where
    ``closed`` says whether the server hung up after its response.
    """
    request = (
        "POST /v1/predict HTTP/1.1\r\n"
        f"Host: {server.host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode()
    with socket.create_connection((server.host, server.port), timeout_s) as sock:
        sock.sendall(request)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed before a response: {data!r}"
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode().split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        while len(body) < int(headers["Content-Length"]):
            body += sock.recv(65536)
        closed = sock.recv(1) == b""
    return int(status_line.split()[1]), headers, body, closed


class TestContentLength:
    """A bad ``Content-Length`` is rejected before any body is read."""

    @pytest.mark.parametrize(
        "content_length, want",
        [("-1", 400), ("abc", 400), (str(10**12), 413), (str((64 << 20) + 1), 413)],
    )
    def test_bad_length_is_rejected_and_closes(
        self, live_server, monkeypatch, content_length, want
    ):
        recorders = record_connections(live_server, monkeypatch)
        internal = obs.counter("serve_internal_errors_total").value
        status, headers, body, closed = raw_post(live_server, content_length)
        assert status == want
        assert headers["Connection"] == "close"
        assert closed
        assert "Content-Length" in json.loads(body)["error"]
        (conn,) = recorders
        split_single_send(conn.sends, status, body)
        assert obs.counter("serve_internal_errors_total").value == internal

    def test_server_still_serves_after_a_rejection(self, live_server, triangle):
        assert raw_post(live_server, "-1")[0] == 400
        client = ServeClient(live_server.url)
        try:
            assert len(client.predict([triangle])) == 1
        finally:
            client.close()


def handler_threads() -> set[threading.Thread]:
    """Live per-connection handler threads of every server in-process."""
    return {
        t for t in threading.enumerate() if "process_request_thread" in t.name
    }


def read_until_close(sock: socket.socket, limit_s: float = 5.0) -> bytes:
    """Everything the server sends until it closes (the socket times out
    after ``limit_s`` if it never does)."""
    sock.settimeout(limit_s)
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


class TestStalledConnections:
    """A stalled or truncated request ends in a terminal response or a
    close, and its handler thread exits: no request holds one forever."""

    @pytest.fixture
    def quick_server(self, model_path, monkeypatch):
        from repro.serve import http as serve_http

        monkeypatch.setattr(serve_http, "CONNECTION_TIMEOUT_S", 0.2)
        registry = ModelRegistry()
        registry.load(model_path)
        server = ReproServer(registry, ServeConfig(port=0)).start()
        yield server
        server.stop()

    def _exchange(self, server, head: bytes, body: bytes, half_close: bool):
        """Send ``head + body``, optionally half-close, read to the close;
        returns the raw reply after asserting the handler thread exited."""
        before = handler_threads()
        with socket.create_connection((server.host, server.port), 5.0) as sock:
            sock.sendall(head + body)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            reply = read_until_close(sock)
        for thread in handler_threads() - before:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        return reply

    @staticmethod
    def _post_head(server, content_length: int) -> bytes:
        return (
            "POST /v1/predict HTTP/1.1\r\n"
            f"Host: {server.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n"
        ).encode()

    @staticmethod
    def _parse(reply: bytes) -> tuple[int, dict, bytes]:
        head, _, body = reply.partition(b"\r\n\r\n")
        status_line, *lines = head.decode().split("\r\n")
        return int(status_line.split()[1]), dict(l.split(": ", 1) for l in lines), body

    def test_stalled_body_is_408_and_closes(self, quick_server):
        internal = obs.counter("serve_internal_errors_total").value
        reply = self._exchange(
            quick_server, self._post_head(quick_server, 100), b'{"gra', False
        )
        status, headers, body = self._parse(reply)
        assert status == 408
        assert headers["Connection"] == "close"
        assert body == reply[-int(headers["Content-Length"]) :]
        assert "not received in" in json.loads(body)["error"]
        assert obs.counter("serve_internal_errors_total").value == internal

    def test_stalled_headers_close(self, quick_server):
        head = f"POST /v1/predict HTTP/1.1\r\nHost: {quick_server.host}\r\n".encode()
        assert self._exchange(quick_server, head, b"", False) == b""

    def test_half_close_mid_body_is_400_and_closes(self, quick_server):
        reply = self._exchange(
            quick_server, self._post_head(quick_server, 100), b'{"gra', True
        )
        status, headers, body = self._parse(reply)
        assert status == 400
        assert headers["Connection"] == "close"
        assert "ended at byte 5 of 100" in json.loads(body)["error"]


class TestOverload:
    """429/504 need a server whose worker we can park: fake slow model."""

    @pytest.fixture
    def slow_server(self, model_path):
        from repro.serve import ModelRegistry, ReproServer, ServeConfig

        registry = ModelRegistry(warm=False)
        registry.load(model_path)
        server = ReproServer(
            registry,
            ServeConfig(port=0, max_batch=1, max_wait_ms=0, max_queue=1, retry_after_s=7),
        )
        server.start()
        entered = threading.Event()
        release = threading.Event()

        def blocking_infer(graphs):
            entered.set()
            assert release.wait(timeout=10.0)
            return np.full((len(graphs), 2), 0.5), {
                "model": "default",
                "version": 1,
                "classes": [0, 1],
            }

        batcher = MicroBatcher(
            blocking_infer, max_batch=1, max_wait_ms=0, max_queue=1
        ).start()
        with server._batcher_lock:
            server._batchers["default"] = batcher
        yield server, entered, release
        release.set()
        server.stop()

    def _post(self, url, triangle, results, timeout_ms=None):
        client = ServeClient(url)
        payload = ServeClient._payload([triangle], None, timeout_ms)
        try:
            results.append(client.request("POST", "/v1/predict", payload))
        finally:
            client.close()

    def test_shed_is_429_with_retry_after(self, slow_server, triangle, monkeypatch):
        server, entered, release = slow_server
        recorders = record_connections(server, monkeypatch)
        results: list = []
        # One request occupies the worker, one fills the queue (max_queue=1).
        t1 = threading.Thread(target=self._post, args=(server.url, triangle, results))
        t1.start()
        assert entered.wait(timeout=5.0)
        t2 = threading.Thread(target=self._post, args=(server.url, triangle, results))
        t2.start()
        batcher = server.batcher_for("default")
        for _ in range(1000):
            if batcher.depth() >= 1:
                break
            time.sleep(0.005)
        else:
            pytest.fail("queued request never reached the batcher")
        overflow: list = []
        self._post(server.url, triangle, overflow)
        status, headers, body = overflow[0]
        assert status == 429
        assert headers["retry-after"] == "7"
        assert "queue full" in json.loads(body)["error"]
        (shed_conn,) = [
            r for r in recorders if r.sends and r.sends[0].startswith(b"HTTP/1.1 429")
        ]
        sent = split_single_send(shed_conn.sends, 429, body)
        assert sent["Retry-After"] == "7"
        release.set()
        t1.join(timeout=5.0)
        t2.join(timeout=5.0)
        assert sorted(r[0] for r in results) == [200, 200]

    def test_expired_deadline_is_504(self, slow_server, triangle):
        server, entered, release = slow_server
        results: list = []
        t1 = threading.Thread(target=self._post, args=(server.url, triangle, results))
        t1.start()
        assert entered.wait(timeout=5.0)
        expired: list = []
        self._post(server.url, triangle, expired, timeout_ms=50)
        assert expired[0][0] == 504
        release.set()
        t1.join(timeout=5.0)
        assert results[0][0] == 200


class TestConcurrentBitwiseProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    @given(graph_list=st.lists(random_graphs(), min_size=1, max_size=5))
    def test_concurrent_requests_bitwise_equal_in_process(
        self, live_server, serve_model, graph_list
    ):
        """Each concurrent single-graph request returns exactly the row
        that an in-process batched ``predict_proba`` produces."""
        rows = [None] * len(graph_list)
        errors = [None] * len(graph_list)

        def worker(i):
            client = ServeClient(live_server.url)
            try:
                rows[i] = client.predict_proba([graph_list[i]])[0]
            except Exception as exc:  # noqa: BLE001
                errors[i] = exc
            finally:
                client.close()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(graph_list))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert errors == [None] * len(graph_list)
        local = serve_model.predict_proba(graph_list)
        np.testing.assert_array_equal(np.stack(rows), local)
