"""ThreadingHTTPServer front-end over the registry + micro-batcher.

Endpoints
---------
``POST /v1/predict``
    ``{"graphs": [...], "model": "default", "timeout_ms": 2000}`` ->
    ``{"labels": [...], "model": ..., "version": ..., "trace_id": ...}``.
``POST /v1/predict_proba``
    Same request -> ``{"proba": [[...]], "classes": [...], ...}``.
``GET /healthz``
    Liveness + loaded-model inventory + queue depths + SLO state; the
    top-level ``status`` flips to ``degraded`` while any SLO objective
    (p95 latency, error budget) is breached.
``GET /metrics``
    The process-wide :mod:`repro.obs` metrics registry in Prometheus
    text-exposition format (queue depth + high-water, batch-size and
    wait-decomposition histograms, shed / deadline counters, request
    latencies, ``slo_*`` and ``resource_*`` gauges).
``GET /v1/traces/<id>``
    The stage waterfall of a recently answered request (bounded
    in-memory store; ``repro ops trace`` rebuilds the same record
    offline from a ``--log-json`` run file).

Request tracing: every request carries a trace id — minted at ingress
or supplied via the ``X-Repro-Trace-Id`` header — that is echoed in the
response (header + body) and stamped on every span the request
produces.  Per-request latency decomposes into ``queue_wait`` /
``batch_wait`` / ``infer`` / ``serialize`` child spans of one
``request`` span; the batcher's ``serve_batch`` span carries the fused
trace ids as span links.  See ``docs/SERVING.md`` for the contract.

Backpressure contract: every request is answered.  A full admission
queue is ``429 Too Many Requests`` with a ``Retry-After`` header; an
expired per-request deadline is ``504``; a stopped batcher is ``503``;
malformed payloads are ``400``; unknown models are ``404``.  The server
never sheds silently and never queues unboundedly.

Transport: accepted connections get ``TCP_NODELAY`` and every response
leaves in one ``sendall`` (status line, headers and body together), so
no keep-alive response waits on the client's delayed ACK.

Handler threads only parse/serialise; all model work happens on the
per-model batcher worker threads, so concurrency in the HTTP layer
translates into *larger fused batches*, not into concurrent forward
passes fighting over cores.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro import obs
from repro.obs.reqtrace import (
    TRACE_HEADER,
    TraceStore,
    new_trace_id,
    valid_trace_id,
)
from repro.obs.resources import ResourceSampler, sample_resources
from repro.obs.slo import SloConfig, SloMonitor
from repro.serve.batcher import (
    BatcherStopped,
    DeadlineExceeded,
    MicroBatcher,
    RequestShed,
    register_serve_metrics,
)
from repro.serve.codec import (
    BINARY_CONTENT_TYPE,
    MAX_BINARY_REQUEST,
    CodecError,
    encode_predict_response,
    parse_predict_request,
    parse_predict_request_binary,
)
from repro.serve.pool import InferencePool, PoolError, register_pool_metrics
from repro.serve.registry import ModelRegistry

__all__ = ["ServeConfig", "ReproServer"]

#: Bucket edges for end-to-end request latency (seconds).
REQUEST_SECONDS_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

_TRACES_PREFIX = "/v1/traces/"

#: Seconds a connection may sit idle, or stall mid-request, before its
#: handler gives up on it.  A stalled body is answered 408 and closed;
#: stalled headers or an idle keep-alive connection are closed, which
#: ``ServeClient`` answers by reconnecting.
CONNECTION_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServeConfig:
    """Server tuning knobs (see ``docs/SERVING.md`` for guidance)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from ReproServer.port
    max_batch: int = 32
    max_wait_ms: float = 5.0
    max_queue: int = 128
    request_timeout_s: float = 30.0
    retry_after_s: int = 1
    # -- SLO objectives (see repro.obs.slo) -----------------------------
    slo_latency_p95_ms: float = 500.0
    slo_error_rate_target: float = 0.01
    slo_window_s: float = 60.0
    slo_min_samples: int = 20
    # -- telemetry ------------------------------------------------------
    resource_interval_s: float = 5.0  # <= 0 disables the sampler thread
    trace_capacity: int = 512
    # -- inference backend (see repro.serve.pool) -----------------------
    backend: str = "thread"  # "thread" (in-process) | "pool" (processes)
    workers: int = 1  # drainer threads per batcher, and pool processes
    pool_max_respawns: int = 3

    def __post_init__(self) -> None:
        # Batchers are built lazily on the first request, so a bad value
        # must fail here, before the server binds, not as a 500 later.
        if self.backend not in ("thread", "pool"):
            raise ValueError(
                f"backend must be 'thread' or 'pool', got {self.backend!r}"
            )
        for name in ("workers", "max_batch", "max_queue"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")


class ReproServer:
    """Owns the HTTP listener and one :class:`MicroBatcher` per model."""

    def __init__(self, registry: ModelRegistry, config: ServeConfig | None = None) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self._httpd: ThreadingHTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._batchers: dict[str, MicroBatcher] = {}
        self._batcher_lock = threading.Lock()
        self._pool: InferencePool | None = None
        self._pool_lock = threading.Lock()
        self._started_at = 0.0
        self._owns_obs = False
        self.slo = SloMonitor(
            SloConfig(
                latency_p95_ms=self.config.slo_latency_p95_ms,
                error_rate_target=self.config.slo_error_rate_target,
                window_s=self.config.slo_window_s,
                min_samples=self.config.slo_min_samples,
            )
        )
        self.traces = TraceStore(capacity=self.config.trace_capacity)
        self._sampler = ResourceSampler(
            interval_s=self.config.resource_interval_s,
            extra=self._sampler_extra,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        if self._httpd is not None:
            return self
        # /metrics serves the process-wide obs registry; a serving
        # process wants it recording even when nobody asked for traces.
        if not obs.enabled():
            obs.enable()
            self._owns_obs = True
        # Expose the full serving surface from the first /metrics scrape,
        # even before any request creates a batcher.
        register_serve_metrics()
        register_pool_metrics()
        obs.histogram("serve_request_seconds", REQUEST_SECONDS_BUCKETS)
        obs.counter("serve_internal_errors_total")
        obs.counter("serve_canary_requests_total")
        obs.counter("serve_shadow_batches_total")
        obs.counter("serve_shadow_agree_total")
        obs.counter("serve_shadow_mismatch_total")
        obs.counter("serve_shadow_errors_total")
        registry = obs.get_metrics()
        registry.describe(
            "serve_request_seconds", "End-to-end HTTP predict latency."
        )
        registry.describe(
            "serve_internal_errors_total", "Requests answered with HTTP 500."
        )
        registry.describe(
            "serve_canary_requests_total", "Requests routed to a canary version."
        )
        registry.describe(
            "serve_shadow_batches_total", "Batches shadow-evaluated against a pinned version."
        )
        registry.describe(
            "serve_shadow_agree_total", "Shadowed graphs whose predicted label matched the live answer."
        )
        registry.describe(
            "serve_shadow_mismatch_total", "Shadowed graphs whose predicted label diverged from the live answer."
        )
        registry.describe(
            "serve_shadow_errors_total", "Shadow forward passes that raised (compared as errors, never returned)."
        )
        self._sampler.start()
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.daemon_threads = True
        self._started_at = time.time()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._serve_thread.start()
        obs.event("server_started", host=self.host, port=self.port)
        return self

    def stop(self) -> None:
        self._sampler.stop()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        with self._batcher_lock:
            batchers, self._batchers = dict(self._batchers), {}
        for batcher in batchers.values():
            batcher.stop()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.stop()
        if self._owns_obs:
            obs.disable()
            self._owns_obs = False

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        assert self._httpd is not None, "server not started"
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The actually-bound port (meaningful with ``port=0``)."""
        assert self._httpd is not None, "server not started"
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def batcher_for(self, name: str, version: int | None = None) -> MicroBatcher:
        """Get or lazily create the batcher serving model ``name``.

        A pinned ``version`` gets its own channel batcher (keyed
        ``name@v<version>``) so canary traffic fuses separately from
        stable traffic — one batch is always answered by one version.
        """
        key = name if version is None else f"{name}@v{version}"
        with self._batcher_lock:
            batcher = self._batchers.get(key)
            if batcher is None:
                cfg = self.config
                batcher = MicroBatcher(
                    self._make_infer(name, version),
                    max_batch=cfg.max_batch,
                    max_wait_ms=cfg.max_wait_ms,
                    max_queue=cfg.max_queue,
                    workers=cfg.workers,
                ).start()
                self._batchers[key] = batcher
            return batcher

    def _pool_for(self, entry) -> InferencePool | None:
        """The shared process pool, created on first use (pool backend)."""
        if self.config.backend != "pool":
            return None
        with self._pool_lock:
            if self._pool is None:
                self._pool = InferencePool(
                    entry.path,
                    workers=self.config.workers,
                    max_respawns=self.config.pool_max_respawns,
                ).start()
            return self._pool

    def _forward(self, entry, graphs) -> np.ndarray:
        """One fused forward pass on the configured backend.

        Pool jobs carry the entry's artifact path, so hot-swaps reach
        pool workers at the same batch boundary as in-thread callers.
        A degraded (or mid-degrading) pool falls back to the in-thread
        model — bitwise the same answer, reduced parallelism.
        """
        pool = self._pool_for(entry)
        if pool is not None:
            try:
                return pool.submit(
                    graphs, op="predict_proba", model_path=entry.path
                )
            except PoolError:
                obs.counter("serve_pool_fallback_jobs_total").inc()
        return entry.model.predict_proba(graphs)

    def _maybe_shadow(self, name: str, entry, graphs, proba) -> None:
        """Shadow-evaluate the batch; compare and count, never return.

        Comparison is on predicted labels (argmax through each entry's
        own class vector) — the question shadow answers is "would the
        candidate have answered differently?", not whether probabilities
        drifted in the 12th decimal.
        """
        try:
            shadow = self.registry.shadow(name)
        except KeyError:
            return
        if shadow is None or shadow.version == entry.version:
            return
        obs.counter("serve_shadow_batches_total").inc()
        try:
            shadow_proba = shadow.model.predict_proba(graphs)
        except Exception:  # noqa: BLE001 - shadow must never break serving
            obs.counter("serve_shadow_errors_total").inc()
            return
        live = np.asarray(entry.classes)[np.argmax(proba, axis=1)]
        cand = np.asarray(shadow.classes)[np.argmax(shadow_proba, axis=1)]
        agree = int(np.sum(live == cand))
        obs.counter("serve_shadow_agree_total").inc(agree)
        obs.counter("serve_shadow_mismatch_total").inc(len(live) - agree)

    def _make_infer(self, name: str, version: int | None = None):
        """Fused forward over model ``name`` (latest, or pinned version).

        The entry is resolved per batch, so a hot-swap takes effect at
        the next batch boundary and every request in one batch is
        answered by exactly one model version.
        """

        def infer(graphs):
            entry = self.registry.get(name, version)
            proba = self._forward(entry, graphs)
            if version is None:  # shadow mirrors stable traffic only
                self._maybe_shadow(name, entry, graphs, proba)
            extra = {
                "model": entry.name,
                "version": entry.version,
                "classes": list(entry.classes),
            }
            return proba, extra

        return infer

    def queue_depths(self) -> dict[str, int]:
        with self._batcher_lock:
            return {name: b.depth() for name, b in sorted(self._batchers.items())}

    def _sampler_extra(self) -> dict[str, float]:
        """Gauges published on the resource sampler's cadence.

        Refreshing ``serve_queue_depth`` here means the gauge decays
        back to the true (usually 0) depth while the server idles,
        instead of freezing at the last request's reading.
        """
        return {"serve_queue_depth": sum(self.queue_depths().values())}

    def healthz(self) -> dict:
        with self._pool_lock:
            pool = self._pool
        status = self.slo.status()
        if pool is not None and pool.degraded:
            # A degraded pool still answers (in-thread fallback) but has
            # lost its parallelism — surface it exactly like an SLO burn.
            status = "degraded"
        with self._batcher_lock:
            batchers = {
                key: {"depth": b.depth(), "workers": b.workers}
                for key, b in sorted(self._batchers.items())
            }
        return {
            "status": status,
            "uptime_s": round(time.time() - self._started_at, 3),
            "models": self.registry.describe(),
            "queues": self.queue_depths(),
            "batchers": batchers,
            "backend": {
                "kind": self.config.backend,
                "pool": None if pool is None else pool.describe(),
            },
            "slo": self.slo.snapshot(),
            "resources": sample_resources(),
            "config": asdict(self.config),
        }


# ----------------------------------------------------------------------
# Request handler
# ----------------------------------------------------------------------

def _make_handler(server: "ReproServer") -> type[BaseHTTPRequestHandler]:
    """Bind a handler class to one :class:`ReproServer` instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve/1.0"
        # StreamRequestHandler.setup() sets TCP_NODELAY on the accepted
        # connection.  Without it a keep-alive response that follows the
        # client's request can sit in Nagle's buffer until the peer's
        # delayed ACK fires (~40 ms), which dwarfs a small forward pass.
        disable_nagle_algorithm = True
        # StreamRequestHandler.setup() applies it to the socket, so no
        # read or write can hold a handler thread forever.
        timeout = CONNECTION_TIMEOUT_S
        app = server

        # Structured access-log events (emitted per response in
        # _access_log) replace the stdlib's stderr line logging.
        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass

        def _access_log(
            self, method: str, status: int, duration_s: float, trace_id: str
        ) -> None:
            obs.event(
                "http_access",
                method=method,
                path=self.path,
                status=status,
                duration_ms=round(duration_s * 1000.0, 3),
                trace_id=trace_id,
            )

        def _ingress_trace_id(self) -> str:
            """Adopt a valid client-supplied trace id or mint one."""
            supplied = (self.headers.get(TRACE_HEADER) or "").strip()
            if valid_trace_id(supplied):
                return supplied.lower()
            return new_trace_id()

        # -- GET --------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            start = time.perf_counter()
            trace_id = self._ingress_trace_id()
            status = 500
            try:
                if self.path == "/healthz":
                    status = self._send_json(
                        200, self.app.healthz(), trace_id=trace_id
                    )
                elif self.path == "/metrics":
                    status = self._send(
                        200,
                        "text/plain; version=0.0.4",
                        obs.get_metrics().to_promtext().encode(),
                        {TRACE_HEADER: trace_id},
                    )
                elif self.path.startswith(_TRACES_PREFIX):
                    status = self._handle_get_trace(trace_id)
                else:
                    status = self._send_json(
                        404,
                        {"error": f"no such path: {self.path}"},
                        trace_id=trace_id,
                    )
            finally:
                self._access_log("GET", status, time.perf_counter() - start, trace_id)

        def _handle_get_trace(self, trace_id: str) -> int:
            wanted = self.path[len(_TRACES_PREFIX):]
            record = self.app.traces.get(wanted)
            if record is None:
                return self._send_json(
                    404,
                    {"error": f"no stored trace with id {wanted!r}"},
                    trace_id=trace_id,
                )
            return self._send_json(200, record, trace_id=trace_id)

        # -- POST -------------------------------------------------------
        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            start = time.perf_counter()
            trace_id = self._ingress_trace_id()
            status = 500
            try:
                if self.path not in ("/v1/predict", "/v1/predict_proba"):
                    status = self._send_json(
                        404,
                        {"error": f"no such path: {self.path}"},
                        trace_id=trace_id,
                    )
                    return
                status = self._handle_predict(
                    want_proba=self.path.endswith("_proba"), trace_id=trace_id
                )
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                obs.counter("serve_internal_errors_total").inc()
                status = self._send_json(
                    500, {"error": f"internal error: {exc}"}, trace_id=trace_id
                )
            finally:
                elapsed = time.perf_counter() - start
                obs.histogram(
                    "serve_request_seconds", REQUEST_SECONDS_BUCKETS
                ).observe(elapsed)
                obs.counter(f"serve_responses_{status}_total").inc()
                # Only predict traffic spends SLO budget; health and
                # metrics scrapes are not user-facing work.
                if self.path in ("/v1/predict", "/v1/predict_proba"):
                    self.app.slo.observe(elapsed, status)
                self._access_log("POST", status, elapsed, trace_id)

        def _handle_predict(self, want_proba: bool, trace_id: str) -> int:
            mono0 = time.monotonic()
            ts0 = time.time()
            endpoint = "predict_proba" if want_proba else "predict"
            status = 500
            timing: dict = {}
            serialize_started: float | None = None
            name = None
            with obs.span(
                "request", trace_id=trace_id, endpoint=endpoint, method="POST"
            ) as req_span:
                try:
                    status = self._predict_inner(
                        want_proba, trace_id, req_span, timing
                    )
                    name = timing.get("model")
                    serialize_started = timing.get("serialize_started_at")
                finally:
                    req_span.set_attr("status", status)
                    total_s = time.monotonic() - mono0
                    stages = _stage_spans(
                        mono0, timing, serialize_started, time.monotonic()
                    )
                    if obs.enabled():
                        tracer = obs.get_tracer()
                        for stage in stages:
                            tracer.graft(
                                {
                                    "name": stage["name"],
                                    "attrs": {
                                        "trace_id": trace_id,
                                        "offset_s": stage["offset_s"],
                                    },
                                    "duration": stage["duration_s"],
                                },
                                parent=req_span,
                            )
                    self.app.traces.put(
                        trace_id,
                        {
                            "trace_id": trace_id,
                            "endpoint": endpoint,
                            "model": name,
                            "status": status,
                            "batch_id": timing.get("batch_id"),
                            "ts": ts0,
                            "duration_s": total_s,
                            "spans": stages,
                        },
                    )
            return status

        def _content_type(self) -> str:
            return (
                (self.headers.get("Content-Type") or "")
                .split(";")[0]
                .strip()
                .lower()
            )

        def _wants_binary(self) -> bool:
            accept = (self.headers.get("Accept") or "").lower()
            return BINARY_CONTENT_TYPE in accept

        def _predict_inner(
            self, want_proba: bool, trace_id: str, req_span, timing: dict
        ) -> int:
            # Checked before reading: ``read(-1)`` would block to EOF on
            # a keep-alive socket, and a huge length would be allocated.
            # The unread body leaves the stream unframed, so close it.
            text = self.headers.get("Content-Length", "0").strip()
            length = int(text) if text.isascii() and text.isdigit() else -1
            if length < 0 or length > MAX_BINARY_REQUEST:
                return self._send_json(
                    400 if length < 0 else 413,
                    {
                        "error": f"Content-Length {text!r} is not an integer "
                        f"in [0, {MAX_BINARY_REQUEST}]"
                    },
                    headers={"Connection": "close"},
                    trace_id=trace_id,
                )
            # A body that stalls or ends early leaves it unframed too.
            try:
                raw = self.rfile.read(length)
            except TimeoutError:
                return self._send_json(
                    408,
                    {"error": f"request body not received in {self.timeout} s"},
                    headers={"Connection": "close"},
                    trace_id=trace_id,
                )
            if len(raw) < length:
                return self._send_json(
                    400,
                    {"error": f"request body ended at byte {len(raw)} of {length}"},
                    headers={"Connection": "close"},
                    trace_id=trace_id,
                )
            try:
                if self._content_type() == BINARY_CONTENT_TYPE:
                    graphs, model, timeout_s = parse_predict_request_binary(raw)
                else:
                    graphs, model, timeout_s = parse_predict_request(raw)
            except CodecError as exc:
                return self._send_json(400, {"error": str(exc)}, trace_id=trace_id)
            name = model or "default"
            timing["model"] = name
            req_span.set_attr("model", name)
            if timeout_s is None:
                timeout_s = self.app.config.request_timeout_s
            try:
                entry, channel = self.app.registry.route(name, trace_id)
            except KeyError as exc:
                return self._send_json(
                    404, {"error": str(exc.args[0])}, trace_id=trace_id
                )
            canaried = self.app.registry.canary(name) is not None
            if channel == "canary":
                obs.counter("serve_canary_requests_total").inc()
                req_span.set_attr("channel", "canary")
                batcher = self.app.batcher_for(name, version=entry.version)
            else:
                batcher = self.app.batcher_for(name)
            try:
                proba, extra, stamps = batcher.submit_traced(
                    graphs, timeout_s=timeout_s, trace_id=trace_id
                )
                timing.update(stamps)
            except RequestShed as exc:
                return self._send_json(
                    429,
                    {"error": str(exc)},
                    headers={"Retry-After": str(self.app.config.retry_after_s)},
                    trace_id=trace_id,
                )
            except DeadlineExceeded as exc:
                return self._send_json(504, {"error": str(exc)}, trace_id=trace_id)
            except BatcherStopped as exc:
                return self._send_json(503, {"error": str(exc)}, trace_id=trace_id)
            req_span.set_attr("batch_id", stamps.get("batch_id"))
            body = {"model": extra["model"], "version": extra["version"]}
            if canaried:
                # Only present while a canary split is configured, so
                # steady-state responses don't grow a vestigial field.
                body["channel"] = channel
            if want_proba:
                body["classes"] = extra["classes"]
                body["proba"] = proba.tolist()
            else:
                classes = np.asarray(extra["classes"])
                body["labels"] = classes[np.argmax(proba, axis=1)].tolist()
            timing["serialize_started_at"] = time.monotonic()
            if self._wants_binary():
                return self._send_binary(200, body, trace_id=trace_id)
            return self._send_json(200, body, trace_id=trace_id)

        # -- plumbing ---------------------------------------------------
        def _send(
            self,
            status: int,
            content_type: str,
            body: bytes,
            headers: dict[str, str],
        ) -> int:
            """Write one whole response in a single ``sendall``.

            ``end_headers()`` would flush the header block as a segment
            of its own and the body would follow as a second one; the
            blank line and the body are appended to the pending header
            buffer instead, so status line, headers and body leave in
            one write.
            """
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for key, value in headers.items():
                self.send_header(key, value)
            self._headers_buffer.extend((b"\r\n", body))
            self.flush_headers()
            return status

        def _send_binary(self, status: int, payload: dict, trace_id: str) -> int:
            """Answer in the binary codec (client sent ``Accept: x-repro-graph``).

            Carries byte-for-byte the same tensors and metadata as the
            JSON path; errors still go out as JSON so a failing request
            is always inspectable with nothing but a text console.
            """
            if "trace_id" not in payload:
                payload = {**payload, "trace_id": trace_id}
            return self._send(
                status,
                BINARY_CONTENT_TYPE,
                encode_predict_response(payload),
                {TRACE_HEADER: trace_id},
            )

        def _send_json(
            self,
            status: int,
            payload: dict,
            headers: dict | None = None,
            *,
            trace_id: str,
        ) -> int:
            if "trace_id" not in payload:
                payload = {**payload, "trace_id": trace_id}
            return self._send(
                status,
                "application/json",
                json.dumps(payload).encode(),
                {TRACE_HEADER: trace_id, **(headers or {})},
            )

    return Handler


def _stage_spans(
    mono0: float,
    timing: dict,
    serialize_started: float | None,
    serialize_ended: float,
) -> list[dict]:
    """Decompose one request into its waterfall stages.

    Stage boundaries come from the batcher's monotonic stamps
    (:meth:`MicroBatcher.submit_traced`); ``serialize`` covers response
    encoding + the single socket write.  Stages whose boundaries were never reached
    (sheds, deadline expiries, parse errors) are simply absent, so the
    durations always sum to at most the measured request latency.
    """
    spans: list[dict] = []

    def add(name: str, start: float | None, end: float | None) -> None:
        if start is None or end is None or end < start:
            return
        spans.append(
            {
                "name": name,
                "offset_s": max(0.0, start - mono0),
                "duration_s": end - start,
            }
        )

    add("queue_wait", timing.get("enqueued_at"), timing.get("collected_at"))
    add("batch_wait", timing.get("collected_at"), timing.get("infer_started_at"))
    add("infer", timing.get("infer_started_at"), timing.get("infer_ended_at"))
    add("serialize", serialize_started, serialize_ended)
    return spans
