"""MicroBatcher tests: fusing, flushing, shedding, deadlines, correctness.

The crown jewel is the batch-composition-invariance property: a fused
forward pass over concurrently submitted requests must be *bitwise*
identical to running every request alone.  The inference ``Dense`` path
fixes its GEMM summation order per row precisely so this holds.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.serve import (
    BatcherStopped,
    DeadlineExceeded,
    MicroBatcher,
    RequestShed,
)
from tests.conftest import random_graphs

pytestmark = pytest.mark.serve


@pytest.fixture
def metrics():
    """Obs enabled for the test (left alone if a live server owns it)."""
    was_enabled = obs.enabled()
    if not was_enabled:
        obs.enable()
    yield obs.get_metrics()
    if not was_enabled:
        obs.disable()


class RecordingInfer:
    """Fake model: echoes items as a column vector, records batch sizes."""

    def __init__(self) -> None:
        self.batch_sizes: list[int] = []
        self.lock = threading.Lock()

    def __call__(self, items):
        with self.lock:
            self.batch_sizes.append(len(items))
        return np.asarray(items, dtype=float).reshape(-1, 1), {"model": "echo"}


class BlockingInfer(RecordingInfer):
    """Echo infer that parks on an event so tests can pile up a queue."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, items):
        self.entered.set()
        assert self.release.wait(timeout=10.0), "test never released the batcher"
        return super().__call__(items)


def wait_for_depth(batcher, depth, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while batcher.depth() < depth:
        assert time.monotonic() < deadline, f"queue never reached depth {depth}"
        time.sleep(0.005)


def queue_behind_blocked_drainer(batcher, infer, payloads):
    """Park the drainer in ``infer`` on a first request, then queue
    ``payloads`` in order behind it.

    Returns the submitting threads (first request included) and a dict
    mapping each payload's first value to its ``submit_traced`` result.
    Release with ``infer.release.set()``.
    """
    results = {}

    def submit(payload):
        results[payload[0]] = batcher.submit_traced(payload)

    threads = [threading.Thread(target=submit, args=([0.0],))]
    threads[0].start()
    assert infer.entered.wait(timeout=5.0)
    for depth, payload in enumerate(payloads, start=1):
        thread = threading.Thread(target=submit, args=(payload,))
        thread.start()
        threads.append(thread)
        wait_for_depth(batcher, depth)  # one at a time: queue order is fixed
    return threads, results


def submit_concurrently(batcher, payloads, timeout_s=None):
    """Submit each payload from its own thread; return results/errors in order."""
    results = [None] * len(payloads)
    errors = [None] * len(payloads)
    barrier = threading.Barrier(len(payloads))

    def worker(i):
        barrier.wait()
        try:
            results[i] = batcher.submit(payloads[i], timeout_s=timeout_s)
        except Exception as exc:  # noqa: BLE001 - re-raised by callers
            errors[i] = exc

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(payloads))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=15.0)
    return results, errors


class TestFusing:
    def test_single_request_roundtrip(self, metrics):
        infer = RecordingInfer()
        batcher = MicroBatcher(infer, max_wait_ms=0).start()
        try:
            proba, extra = batcher.submit([3.0, 4.0])
            np.testing.assert_array_equal(proba, [[3.0], [4.0]])
            assert extra == {"model": "echo"}
        finally:
            batcher.stop()

    def test_concurrent_requests_fuse_into_one_batch(self, metrics):
        infer = BlockingInfer()
        batcher = MicroBatcher(infer, max_batch=4, max_wait_ms=10_000).start()
        try:
            threads, results = queue_behind_blocked_drainer(
                batcher, infer, [[1.0], [2.0], [3.0], [4.0]]
            )
            infer.release.set()
            for t in threads:
                t.join(timeout=5.0)
        finally:
            infer.release.set()
            batcher.stop()
        # The four queued requests fill max_batch and flush long before
        # the 10 s window ends; each gets exactly its own slice back.
        assert infer.batch_sizes == [1, 4]
        for value in (1.0, 2.0, 3.0, 4.0):
            proba, _, _ = results[value]
            np.testing.assert_array_equal(proba, [[value]])

    def test_idle_request_flushes_at_once(self, metrics):
        """Nothing queued behind a request: no batch is forming, so it
        runs at once instead of waiting out ``max_wait_ms``."""
        batcher = MicroBatcher(RecordingInfer(), max_wait_ms=10_000).start()
        try:
            start = time.monotonic()
            proba, _, stamps = batcher.submit_traced([1.0])
            elapsed = time.monotonic() - start
        finally:
            batcher.stop()
        np.testing.assert_array_equal(proba, [[1.0]])
        assert elapsed < 1.0
        assert stamps["infer_started_at"] - stamps["collected_at"] < 1.0

    def test_busy_requests_coalesce_and_carry_over(self, metrics):
        """Requests queued behind an in-flight batch fuse into the next
        one; a request that would overflow it is carried, whole."""
        infer = BlockingInfer()
        batcher = MicroBatcher(infer, max_batch=3, max_wait_ms=10_000).start()
        try:
            threads, results = queue_behind_blocked_drainer(
                batcher, infer, [[1.0], [2.0], [3.0, 4.0]]
            )
            infer.release.set()
            for t in threads:
                t.join(timeout=5.0)
        finally:
            infer.release.set()
            batcher.stop()
        assert infer.batch_sizes == [1, 2, 2]
        batch_of = {value: stamps["batch_id"] for value, (_, _, stamps) in results.items()}
        assert batch_of[1.0] == batch_of[2.0] != batch_of[3.0]
        np.testing.assert_array_equal(results[3.0][0], [[3.0], [4.0]])

    def test_max_wait_flushes_a_partial_batch(self, metrics):
        infer = BlockingInfer()
        batcher = MicroBatcher(infer, max_batch=100, max_wait_ms=200).start()
        try:
            threads, results = queue_behind_blocked_drainer(
                batcher, infer, [[1.0], [2.0]]
            )
            infer.release.set()
            for t in threads:
                t.join(timeout=5.0)
        finally:
            infer.release.set()
            batcher.stop()
        # Two graphs never fill max_batch=100 and nothing is carried:
        # only the wait timer can have flushed the fused pair.
        assert infer.batch_sizes == [1, 2]
        assert results[1.0][2]["batch_id"] == results[2.0][2]["batch_id"]

    def test_oversized_request_carries_over(self, metrics):
        infer = RecordingInfer()
        batcher = MicroBatcher(infer, max_batch=3, max_wait_ms=200).start()
        try:
            results, errors = submit_concurrently(batcher, [[1.0, 2.0], [3.0, 4.0]])
        finally:
            batcher.stop()
        assert errors == [None, None]
        # 2 + 2 graphs cannot share a max_batch=3 pass: the second request
        # is carried into its own batch rather than split or dropped.
        assert sorted(infer.batch_sizes) == [2, 2]
        answered = sorted(tuple(p[:, 0]) for p, _ in results)
        assert answered == [(1.0, 2.0), (3.0, 4.0)]

    def test_request_larger_than_max_batch_still_runs(self, metrics):
        infer = RecordingInfer()
        batcher = MicroBatcher(infer, max_batch=2, max_wait_ms=0).start()
        try:
            proba, _ = batcher.submit([1.0, 2.0, 3.0, 4.0, 5.0])
        finally:
            batcher.stop()
        np.testing.assert_array_equal(proba[:, 0], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert infer.batch_sizes == [5]


class TestBackpressure:
    def test_full_queue_sheds(self, metrics):
        infer = BlockingInfer()
        batcher = MicroBatcher(infer, max_batch=1, max_wait_ms=0, max_queue=2).start()
        shed_before = metrics.counter("serve_requests_shed_total").value
        holders = []
        try:
            # Occupy the worker, then fill the admission queue.
            t = threading.Thread(target=lambda: holders.append(batcher.submit([0.0])))
            t.start()
            assert infer.entered.wait(timeout=5.0)
            queued = [
                threading.Thread(target=lambda v=v: holders.append(batcher.submit([v])))
                for v in (1.0, 2.0)
            ]
            for q in queued:
                q.start()
            deadline = time.monotonic() + 5.0
            while batcher.depth() < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            with pytest.raises(RequestShed, match="admission queue full"):
                batcher.submit([9.0])
            assert metrics.counter("serve_requests_shed_total").value == shed_before + 1
            infer.release.set()
            t.join(timeout=5.0)
            for q in queued:
                q.join(timeout=5.0)
        finally:
            infer.release.set()
            batcher.stop()
        # Shedding refused the overflow request but lost nothing admitted.
        assert len(holders) == 3

    def test_deadline_expires_while_worker_is_busy(self, metrics):
        infer = BlockingInfer()
        batcher = MicroBatcher(infer, max_batch=1, max_wait_ms=0).start()
        try:
            t = threading.Thread(target=lambda: batcher.submit([0.0]))
            t.start()
            assert infer.entered.wait(timeout=5.0)
            with pytest.raises(DeadlineExceeded):
                batcher.submit([1.0], timeout_s=0.05)
            infer.release.set()
            t.join(timeout=5.0)
        finally:
            infer.release.set()
            batcher.stop()

    def test_stop_answers_queued_requests(self, metrics):
        infer = BlockingInfer()
        batcher = MicroBatcher(infer, max_batch=1, max_wait_ms=0).start()
        errors = []

        def queued():
            try:
                batcher.submit([1.0])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        t0 = threading.Thread(target=lambda: batcher.submit([0.0]))
        t0.start()
        assert infer.entered.wait(timeout=5.0)
        t1 = threading.Thread(target=queued)
        t1.start()
        deadline = time.monotonic() + 5.0
        while batcher.depth() < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        batcher.stop(timeout=0.1)  # worker still parked in infer
        infer.release.set()
        t0.join(timeout=5.0)
        t1.join(timeout=5.0)
        assert len(errors) == 1 and isinstance(errors[0], BatcherStopped)

    def test_submit_after_stop_raises(self):
        batcher = MicroBatcher(RecordingInfer()).start()
        batcher.stop()
        with pytest.raises(BatcherStopped):
            batcher.submit([1.0])

    def test_infer_errors_propagate_to_every_request(self, metrics):
        def broken(items):
            raise ValueError("boom")

        batcher = MicroBatcher(broken, max_batch=4, max_wait_ms=30).start()
        try:
            _, errors = submit_concurrently(batcher, [[1.0], [2.0]])
        finally:
            batcher.stop()
        assert all(isinstance(e, ValueError) and "boom" in str(e) for e in errors)

    def test_empty_submit_rejected(self):
        batcher = MicroBatcher(RecordingInfer()).start()
        try:
            with pytest.raises(ValueError, match="at least one graph"):
                batcher.submit([])
        finally:
            batcher.stop()

    @pytest.mark.parametrize(
        "kwargs", [{"max_batch": 0}, {"max_wait_ms": -1}, {"max_queue": 0}]
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatcher(RecordingInfer(), **kwargs)


class TestBitwiseInvariance:
    """Fused batches must equal per-request inference bit for bit."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    @given(graph_lists=st.lists(random_graphs(), min_size=1, max_size=6))
    def test_model_batching_is_bitwise_invariant(self, serve_model, graph_lists):
        batched = serve_model.predict_proba(graph_lists)
        serial = np.concatenate(
            [serve_model.predict_proba([g]) for g in graph_lists]
        )
        np.testing.assert_array_equal(batched, serial)

    def test_fused_batcher_pass_matches_serial_model(self, serve_model, train_data):
        graphs, _ = train_data

        def infer(batch):
            return serve_model.predict_proba(batch), {"model": "wl"}

        batcher = MicroBatcher(infer, max_batch=32, max_wait_ms=100).start()
        infer_sizes: list[int] = []
        real_infer = batcher.infer

        def counting(batch):
            if not infer_sizes:
                # Hold the first pass until every request is admitted, so
                # the rest queue behind it whatever the thread timing.
                wait_for_depth(batcher, len(graphs) - len(batch))
            infer_sizes.append(len(batch))
            return real_infer(batch)

        batcher.infer = counting
        try:
            results, errors = submit_concurrently(batcher, [[g] for g in graphs])
        finally:
            batcher.stop()
        assert errors == [None] * len(graphs)
        fused = np.concatenate([proba for proba, _ in results])
        serial = np.concatenate([serve_model.predict_proba([g]) for g in graphs])
        np.testing.assert_array_equal(fused, serial)
        # The whole point: concurrency became fusion, not serial passes.
        assert max(infer_sizes) > 1


class TestDrainOnStop:
    """Shutdown must drain: every admitted request gets exactly one
    terminal response, and unexpired requests get their *real* answer.

    Regression for the original single-worker batcher, whose ``stop``
    answered everything still queued with :class:`BatcherStopped` even
    when the requests' deadlines had not expired.
    """

    def test_unexpired_requests_are_answered_not_dropped(self, metrics):
        infer = BlockingInfer()
        batcher = MicroBatcher(infer, max_batch=1, max_wait_ms=0).start()
        outcomes: list[tuple[int, str]] = []
        lock = threading.Lock()

        def req(i):
            try:
                result, _ = batcher.submit([float(i)])
                with lock:
                    outcomes.append((i, f"ok:{result[0, 0]:g}"))
            except Exception as exc:  # noqa: BLE001
                with lock:
                    outcomes.append((i, type(exc).__name__))

        threads = [threading.Thread(target=req, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        assert infer.entered.wait(timeout=5.0)
        deadline = time.monotonic() + 5.0
        while batcher.depth() < 7 and time.monotonic() < deadline:
            time.sleep(0.005)
        stopper = threading.Thread(target=lambda: batcher.stop(timeout=10.0))
        stopper.start()
        infer.release.set()
        stopper.join(timeout=15.0)
        for t in threads:
            t.join(timeout=5.0)
        # Exactly one terminal response per admitted request...
        assert sorted(i for i, _ in outcomes) == list(range(8))
        # ...and every one of them is the real answer (echo of its input).
        assert {o for i, o in outcomes} == {f"ok:{i}" for i in range(8)}
        # No request ran twice: 8 single-graph batches total.
        assert sum(infer.batch_sizes) == 8

    def test_expired_requests_get_deadline_not_a_drop(self, metrics):
        infer = BlockingInfer()
        batcher = MicroBatcher(infer, max_batch=1, max_wait_ms=0).start()
        outcomes: list[str] = []
        lock = threading.Lock()

        def req(timeout_s):
            try:
                batcher.submit([1.0], timeout_s=timeout_s)
                with lock:
                    outcomes.append("ok")
            except Exception as exc:  # noqa: BLE001
                with lock:
                    outcomes.append(type(exc).__name__)

        blocker = threading.Thread(target=req, args=(None,))
        blocker.start()
        assert infer.entered.wait(timeout=5.0)
        # One queued request whose deadline will expire mid-drain, one
        # without a deadline.
        expired = threading.Thread(target=req, args=(0.01,))
        fresh = threading.Thread(target=req, args=(None,))
        expired.start()
        fresh.start()
        deadline = time.monotonic() + 5.0
        while batcher.depth() < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.05)  # let the 10ms deadline lapse while queued
        stopper = threading.Thread(target=lambda: batcher.stop(timeout=10.0))
        stopper.start()
        infer.release.set()
        stopper.join(timeout=15.0)
        for t in (blocker, expired, fresh):
            t.join(timeout=5.0)
        assert sorted(outcomes) == ["DeadlineExceeded", "ok", "ok"]

    def test_drain_timeout_still_terminal_for_everyone(self, metrics):
        """If the drain cannot finish, leftovers get BatcherStopped —
        terminal either way, never silence."""
        infer = BlockingInfer()
        batcher = MicroBatcher(infer, max_batch=1, max_wait_ms=0).start()
        outcomes: list[str] = []
        lock = threading.Lock()

        def req():
            try:
                batcher.submit([1.0])
                with lock:
                    outcomes.append("ok")
            except Exception as exc:  # noqa: BLE001
                with lock:
                    outcomes.append(type(exc).__name__)

        threads = [threading.Thread(target=req) for _ in range(3)]
        for t in threads:
            t.start()
        assert infer.entered.wait(timeout=5.0)
        deadline = time.monotonic() + 5.0
        while batcher.depth() < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        batcher.stop(timeout=0.05)  # drain cannot complete: infer parked
        infer.release.set()
        for t in threads:
            t.join(timeout=5.0)
        assert len(outcomes) == 3
        assert outcomes.count("BatcherStopped") == 2  # the queued two
        assert outcomes.count("ok") == 1  # the one already mid-infer


class TestMultiWorker:
    def test_workers_run_batches_concurrently(self, metrics):
        """Two drainers: two blocking batches can be in flight at once."""
        entered = threading.Semaphore(0)
        release = threading.Event()

        def infer(items):
            entered.release()
            assert release.wait(timeout=10.0)
            return np.asarray(items, dtype=float).reshape(-1, 1), {}

        batcher = MicroBatcher(
            infer, max_batch=1, max_wait_ms=0, workers=2
        ).start()
        assert batcher.workers == 2
        threads = [
            threading.Thread(target=lambda: batcher.submit([1.0]))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        assert entered.acquire(timeout=5.0)
        assert entered.acquire(timeout=5.0), "second worker never picked up"
        release.set()
        for t in threads:
            t.join(timeout=5.0)
        batcher.stop()

    def test_resize_grows_and_shrinks(self, metrics):
        batcher = MicroBatcher(RecordingInfer(), workers=1).start()
        try:
            batcher.resize(3)
            assert batcher.workers == 3
            batcher.resize(1)
            deadline = time.monotonic() + 5.0
            while batcher.workers > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert batcher.workers == 1
            # Still serves correctly after shrinking.
            result, _ = batcher.submit([7.0])
            assert result[0, 0] == 7.0
        finally:
            batcher.stop()

    def test_multi_worker_results_route_to_the_right_caller(self, metrics):
        batcher = MicroBatcher(
            RecordingInfer(), max_batch=4, max_wait_ms=1.0, workers=4
        ).start()
        try:
            payloads = [[float(i)] for i in range(32)]
            results, errors = submit_concurrently(batcher, payloads)
            assert errors == [None] * 32
            for i, (result, _) in enumerate(results):
                assert result[0, 0] == float(i), "cross-wired response"
        finally:
            batcher.stop()
