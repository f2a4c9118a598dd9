"""Dynamic micro-batching with a bounded admission queue.

The DeepMap forward pass is a dense batched matmul over fixed-size
``(w * r, m)`` tensors — exactly the shape PATCHY-SAN-style vertex
ordering buys — so ten concurrent single-graph requests cost barely more
than one when fused into a single encoder/CNN pass.  The
:class:`MicroBatcher` does that fusing:

* ``submit`` enqueues a request onto a **bounded** queue; a full queue
  sheds the request immediately (:class:`RequestShed` -> HTTP 429)
  instead of letting latency collapse for everyone;
* a fixed number of drainer threads (``workers``) pull from the shared
  queue.  A request that finds nothing queued behind it runs at once (an
  idle server pays no coalescing delay); otherwise the drainer fuses
  requests until its batch holds ``max_batch`` graphs or ``max_wait_ms``
  has passed since the oldest request in the batch arrived, whichever
  comes first;
* each request carries an optional **deadline**; requests that expire
  while queued are answered with :class:`DeadlineExceeded` (HTTP 504)
  *before* wasting a slot in the forward pass;
* :meth:`MicroBatcher.stop` **drains** before it joins: admission
  closes, but every already-admitted request whose deadline has not
  expired still runs through a fused pass and gets its real answer —
  shutdown never silently drops in-flight work.

Correctness is non-negotiable: because every pipeline stage is per-graph
independent, the fused pass is bitwise-identical to running each request
alone (property-tested in ``tests/serve/test_batcher.py``).

Instrumentation (via :mod:`repro.obs`, no-ops while disabled):
``serve_queue_depth`` / ``serve_queue_depth_peak`` gauges,
``serve_batch_size`` / ``serve_batch_requests`` histograms,
``serve_requests_shed_total`` / ``serve_deadline_expired_total`` /
``serve_batches_total`` counters, and the ``serve_infer_seconds`` /
``serve_queue_wait_seconds`` / ``serve_batch_wait_seconds`` histograms.

Request tracing: every :class:`_Pending` is timestamped at enqueue,
batch collection, and fused-pass start/end, so the HTTP layer can
decompose a request's latency into ``queue_wait`` / ``batch_wait`` /
``infer`` spans (:meth:`MicroBatcher.submit_traced` returns the stamps).
Each fused pass gets a ``batch_id``, and its ``serve_batch`` span
carries the trace ids of the fused requests as span links — the N:1
fan-in is recorded explicitly rather than faked as a tree.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections.abc import Callable, Sequence

import numpy as np

from repro import obs
from repro.graph.graph import Graph

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "BatcherStopped",
    "DeadlineExceeded",
    "MicroBatcher",
    "RequestShed",
    "register_serve_metrics",
]

#: Process-wide batch-id stream; ids are unique per process, which is
#: the scope a trace store and a JSONL run file share.
_BATCH_IDS = itertools.count(1)

#: Bucket edges for the batch-size histograms (graphs / requests per
#: fused forward pass) — powers of two up to a deep queue drain.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Bucket edges for per-batch inference latency (seconds).
INFER_SECONDS_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

#: Bucket edges for per-request wait decomposition (seconds) — finer at
#: the bottom than the infer buckets because waits should be tiny.
WAIT_SECONDS_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

#: ``# HELP`` text for the serving metric surface.
_SERVE_METRIC_HELP = {
    "serve_requests_total": "Requests admitted to a batcher queue.",
    "serve_requests_shed_total": "Requests rejected because the admission queue was full (HTTP 429).",
    "serve_deadline_expired_total": "Requests whose deadline passed while queued (HTTP 504).",
    "serve_batches_total": "Fused forward passes executed.",
    "serve_infer_errors_total": "Fused forward passes that raised.",
    "serve_queue_depth": "Requests currently queued, last observation.",
    "serve_queue_depth_peak": "High-water admission-queue depth (monotone per process).",
    "serve_batch_size": "Graphs per fused forward pass.",
    "serve_batch_requests": "Requests per fused forward pass.",
    "serve_infer_seconds": "Fused forward-pass latency.",
    "serve_queue_wait_seconds": "Per-request wait from admission to batch collection.",
    "serve_batch_wait_seconds": "Per-request wait from batch collection to the fused pass.",
}


def register_serve_metrics() -> None:
    """Pre-register every batching instrument at its zero state.

    Called from both :meth:`MicroBatcher.start` and server startup so a
    ``GET /metrics`` scrape sees the full serving surface (shed counter
    at 0, empty batch-size histogram, ...) before the first request —
    dashboards should never have to special-case absent series.
    """
    obs.counter("serve_requests_total")
    obs.counter("serve_requests_shed_total")
    obs.counter("serve_deadline_expired_total")
    obs.counter("serve_batches_total")
    obs.counter("serve_infer_errors_total")
    obs.gauge("serve_queue_depth")
    obs.gauge("serve_queue_depth_peak")
    obs.histogram("serve_batch_size", BATCH_SIZE_BUCKETS)
    obs.histogram("serve_batch_requests", BATCH_SIZE_BUCKETS)
    obs.histogram("serve_infer_seconds", INFER_SECONDS_BUCKETS)
    obs.histogram("serve_queue_wait_seconds", WAIT_SECONDS_BUCKETS)
    obs.histogram("serve_batch_wait_seconds", WAIT_SECONDS_BUCKETS)
    registry = obs.get_metrics()
    for name, help_text in _SERVE_METRIC_HELP.items():
        registry.describe(name, help_text)


class RequestShed(RuntimeError):
    """Admission queue full; the caller should retry later (HTTP 429)."""


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before a result was ready (HTTP 504)."""


class BatcherStopped(RuntimeError):
    """The batcher was stopped while the request was in flight (HTTP 503)."""


class _Pending:
    """One submitted request waiting for its slice of a fused batch.

    The monotonic timestamps stamped along the way (enqueue, batch
    collection, fused-pass start/end) are what the tracing layer turns
    into the ``queue_wait`` / ``batch_wait`` / ``infer`` waterfall.
    """

    __slots__ = (
        "graphs",
        "enqueued_at",
        "deadline",
        "done",
        "result",
        "extra",
        "error",
        "trace_id",
        "collected_at",
        "infer_started_at",
        "infer_ended_at",
        "batch_id",
    )

    def __init__(
        self,
        graphs: Sequence[Graph],
        deadline: float | None,
        trace_id: str | None = None,
    ) -> None:
        self.graphs = list(graphs)
        self.enqueued_at = time.monotonic()
        self.deadline = deadline
        self.done = threading.Event()
        self.result: np.ndarray | None = None
        self.extra: dict | None = None
        self.error: Exception | None = None
        self.trace_id = trace_id
        self.collected_at: float | None = None
        self.infer_started_at: float | None = None
        self.infer_ended_at: float | None = None
        self.batch_id: str | None = None

    def finish(self, *, result=None, extra=None, error=None) -> None:
        """Deliver the terminal response; idempotent — first answer wins.

        Drain-on-stop means a request can race two resolvers (a drainer
        finishing its last batch vs. the stop path's leftover sweep);
        the idempotence guarantee is what makes "exactly one terminal
        response per admitted request" hold under that race.
        """
        if self.done.is_set():
            return
        self.result = result
        self.extra = extra
        self.error = error
        self.done.set()

    def timing(self) -> dict:
        """Stage boundaries for the tracing layer (None where unreached)."""
        return {
            "enqueued_at": self.enqueued_at,
            "collected_at": self.collected_at,
            "infer_started_at": self.infer_started_at,
            "infer_ended_at": self.infer_ended_at,
            "batch_id": self.batch_id,
        }


class MicroBatcher:
    """Coalesces concurrent predict requests into fused forward passes.

    Parameters
    ----------
    infer:
        ``infer(graphs) -> (proba, extra)`` running one fused forward
        pass; ``extra`` is an arbitrary per-batch metadata dict handed
        back to every request in the batch (the server puts the resolved
        model name/version/classes there so hot-swaps stay consistent
        with the weights that actually ran).
    max_batch:
        Flush threshold in *graphs* (requests may carry several).
    max_wait_ms:
        Flush threshold in milliseconds since the oldest batched
        request arrived.  It only bounds coalescing under concurrency:
        a batch whose first request has nothing queued behind it
        flushes at once.  ``0`` disables coalescing delay entirely.
    max_queue:
        Admission-queue bound in *requests*; beyond it ``submit`` sheds.
    workers:
        Drainer-thread count, fixed for the batcher's lifetime.
    """

    def __init__(
        self,
        infer: Callable[[list[Graph]], tuple[np.ndarray, dict]],
        *,
        max_batch: int = 32,
        max_wait_ms: float = 5.0,
        max_queue: int = 128,
        workers: int = 1,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.infer = infer
        self.max_batch = max_batch
        self.max_wait_s = max_wait_ms / 1000.0
        self.max_queue = max_queue
        self._queue: queue.Queue[_Pending] = queue.Queue(maxsize=max_queue)
        self._stop = threading.Event()  # hard stop: drainers exit ASAP
        self._closing = threading.Event()  # graceful: drain, then exit
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._workers = workers
        self._carries: dict[int, _Pending] = {}  # thread ident -> carry
        self._peak_depth = 0
        self._thread_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        register_serve_metrics()
        with self._lock:
            self._stop.clear()
            self._closing.clear()
            self._threads = [t for t in self._threads if t.is_alive()]
            while len(self._threads) < self._workers:
                thread = threading.Thread(
                    target=self._run,
                    name=f"repro-serve-batcher-{next(self._thread_ids)}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        return self

    @property
    def workers(self) -> int:
        """Live drainer-thread count."""
        with self._lock:
            return sum(1 for t in self._threads if t.is_alive())

    def stop(self, timeout: float = 5.0) -> None:
        """Drain, then stop.

        Admission closes immediately (new ``submit`` calls raise
        :class:`BatcherStopped`), but requests already admitted are
        still batched and answered — a request only gets
        :class:`BatcherStopped` if the drain cannot complete within
        ``timeout`` seconds.  Every admitted request receives exactly
        one terminal response.
        """
        self._closing.set()
        with self._lock:
            threads = list(self._threads)
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._stop.set()  # anything still alive exits without draining
        for thread in threads:
            if thread.is_alive():
                thread.join(timeout=0.1)
        with self._lock:
            self._threads = []
            leftovers = list(self._carries.values())
            self._carries.clear()
        while True:
            try:
                leftovers.append(self._queue.get_nowait())
            except queue.Empty:
                break
        for pending in leftovers:
            # Only reached when the drain timed out; finish() idempotence
            # keeps this from double-answering drained requests.
            pending.finish(error=BatcherStopped("batcher stopped"))
        obs.gauge("serve_queue_depth").set(0)

    @property
    def running(self) -> bool:
        with self._lock:
            return any(t.is_alive() for t in self._threads)

    def depth(self) -> int:
        """Approximate queued request count (for health endpoints)."""
        with self._lock:
            carried = len(self._carries)
        return self._queue.qsize() + carried

    # ------------------------------------------------------------------
    # Submission (called from any thread)
    # ------------------------------------------------------------------
    def submit(
        self, graphs: Sequence[Graph], timeout_s: float | None = None
    ) -> tuple[np.ndarray, dict]:
        """Block until the fused result for ``graphs`` is ready.

        Raises :class:`RequestShed` when the admission queue is full,
        :class:`DeadlineExceeded` when ``timeout_s`` elapses first, and
        :class:`BatcherStopped` when the batcher shuts down mid-flight.
        """
        proba, extra, _ = self.submit_traced(graphs, timeout_s=timeout_s)
        return proba, extra

    def submit_traced(
        self,
        graphs: Sequence[Graph],
        timeout_s: float | None = None,
        trace_id: str | None = None,
    ) -> tuple[np.ndarray, dict, dict]:
        """:meth:`submit`, plus the request's stage-boundary timestamps.

        The third element is :meth:`_Pending.timing` — monotonic stamps
        for enqueue / batch collection / fused-pass start and end plus
        the ``batch_id`` — which the HTTP layer decomposes into the
        ``queue_wait`` / ``batch_wait`` / ``infer`` trace spans.
        """
        if not graphs:
            raise ValueError("submit needs at least one graph")
        if self._closing.is_set() or self._stop.is_set() or not self.running:
            raise BatcherStopped("batcher is not running")
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        pending = _Pending(graphs, deadline, trace_id=trace_id)
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            obs.counter("serve_requests_shed_total").inc()
            raise RequestShed(
                f"admission queue full ({self.max_queue} requests)"
            ) from None
        obs.counter("serve_requests_total").inc()
        if self._closing.is_set() and not self.running:
            # Lost the race with stop(): every drainer exited between our
            # admission check and the enqueue.  Answer here — finish() is
            # idempotent, so the stop-path sweep answering too is safe.
            pending.finish(error=BatcherStopped("batcher stopped"))
        self._note_depth(self._queue.qsize())
        # Wait a little past the deadline: the worker answers expired
        # requests itself, so an on-time DeadlineExceeded still carries
        # the worker's verdict rather than racing it.
        wait = None if deadline is None else max(0.0, deadline - time.monotonic()) + 0.25
        if not pending.done.wait(timeout=wait):
            # The worker counts the expiry when it dequeues the request;
            # counting here too would double-book it.
            raise DeadlineExceeded("request timed out awaiting a batch slot")
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None and pending.extra is not None
        return pending.result, pending.extra, pending.timing()

    def _note_depth(self, depth: int) -> None:
        """Publish the queue depth and keep the high-water mark current."""
        obs.gauge("serve_queue_depth").set(depth)
        if depth > self._peak_depth:
            self._peak_depth = depth
            peak = obs.gauge("serve_queue_depth_peak")
            if depth > peak.value:
                peak.set(depth)

    # ------------------------------------------------------------------
    # Workers (drainer threads; each keeps its own carry)
    # ------------------------------------------------------------------
    def _take_carry(self) -> _Pending | None:
        ident = threading.get_ident()
        with self._lock:
            return self._carries.pop(ident, None)

    def _put_carry(self, pending: _Pending) -> None:
        with self._lock:
            self._carries[threading.get_ident()] = pending

    def _next_batch(self) -> list[_Pending]:
        """Collect one batch: first request, then coalesce until a flush."""
        first = self._take_carry()
        if first is None:
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                return []
        # collected_at closes the queue_wait stage; a carried-over
        # request is re-stamped here because its batch starts now.
        first.collected_at = time.monotonic()
        batch = [first]
        total = len(first.graphs)
        flush_at = first.enqueued_at + self.max_wait_s
        if self._closing.is_set() or self._queue.empty():
            # Draining, or idle: nothing queued behind the first request
            # means no batch is forming, so waiting out the window would
            # only add latency.  Flush at once.
            flush_at = 0.0
        while total < self.max_batch:
            remaining = flush_at - time.monotonic()
            try:
                if remaining <= 0:
                    nxt = self._queue.get_nowait()
                else:
                    nxt = self._queue.get(timeout=min(remaining, 0.01))
            except queue.Empty:
                if remaining <= 0:
                    break
                continue
            if total + len(nxt.graphs) > self.max_batch:
                self._put_carry(nxt)  # runs first in the next batch
                break
            nxt.collected_at = time.monotonic()
            batch.append(nxt)
            total += len(nxt.graphs)
        return batch

    def _run(self) -> None:
        while not self._stop.is_set():
            batch = self._next_batch()
            if not batch:
                if self._closing.is_set() and self.depth() == 0:
                    return  # drained: nothing queued, nothing carried
                continue
            self._note_depth(self.depth())
            now = time.monotonic()
            live: list[_Pending] = []
            for pending in batch:
                if pending.deadline is not None and now > pending.deadline:
                    obs.counter("serve_deadline_expired_total").inc()
                    pending.finish(
                        error=DeadlineExceeded("deadline passed while queued")
                    )
                else:
                    live.append(pending)
            if not live:
                continue
            graphs = [g for pending in live for g in pending.graphs]
            batch_id = f"b{next(_BATCH_IDS)}"
            # Span links: the trace ids fused into this batch.  The
            # request spans live on their handler threads; this records
            # the N:1 fan-in without faking a parent/child relation.
            links = [p.trace_id for p in live if p.trace_id]
            infer_started = time.monotonic()
            for pending in live:
                pending.batch_id = batch_id
                pending.infer_started_at = infer_started
            start = time.perf_counter()
            try:
                with obs.span(
                    "serve_batch",
                    graphs=len(graphs),
                    requests=len(live),
                    batch_id=batch_id,
                    links=links,
                ):
                    proba, extra = self.infer(graphs)
            except Exception as exc:  # noqa: BLE001 - answered per-request
                obs.counter("serve_infer_errors_total").inc()
                for pending in live:
                    pending.finish(error=exc)
                continue
            elapsed = time.perf_counter() - start
            infer_ended = time.monotonic()
            obs.counter("serve_batches_total").inc()
            obs.histogram("serve_batch_size", BATCH_SIZE_BUCKETS).observe(len(graphs))
            obs.histogram("serve_batch_requests", BATCH_SIZE_BUCKETS).observe(len(live))
            obs.histogram("serve_infer_seconds", INFER_SECONDS_BUCKETS).observe(elapsed)
            queue_waits = obs.histogram("serve_queue_wait_seconds", WAIT_SECONDS_BUCKETS)
            batch_waits = obs.histogram("serve_batch_wait_seconds", WAIT_SECONDS_BUCKETS)
            offset = 0
            for pending in live:
                pending.infer_ended_at = infer_ended
                if pending.collected_at is not None:
                    queue_waits.observe(pending.collected_at - pending.enqueued_at)
                    batch_waits.observe(infer_started - pending.collected_at)
                span = len(pending.graphs)
                pending.finish(result=proba[offset : offset + span], extra=extra)
                offset += span

