"""Process-pool inference backend.

The thread backend runs every fused forward pass on the batcher thread
of one process, so extra batcher workers only interleave — they never
use a second core.  :class:`InferencePool` moves the forward pass into
worker *processes*:

* each worker is a long-lived subprocess holding a loaded model (cached
  by artifact path, so a registry hot-swap simply ships a new path and
  the worker reloads);
* a fused batch travels inline over the worker's pipe as its flat CSR
  tensors (:func:`repro.serve.codec.graphs_to_arrays`) packed as raw
  bytes by :func:`~repro.utils.wire.pack_message` — no pickle on the
  tensor path; the result (small: ``(n, classes)``) returns the same
  way.  Served batches are a few KB to tens of KB, where the pipe is
  never clearly slower than a shared-memory handoff.

Fault tolerance mirrors the repo's other pools: a worker death (crash,
``kill``/``raise`` faults at the ``pool_worker`` injection point) is
detected on the pipe, the job is retried on a freshly spawned worker,
and after ``max_respawns`` replacement workers the pool *degrades* —
every subsequent :meth:`InferencePool.submit` raises
:class:`PoolError`, ``/healthz`` reports ``degraded``, and the
``serve_pool_degradations_total`` counter records it.  The server owns
the one fallback: it catches :class:`PoolError` and runs the batch
in-thread.  Degradation never changes results: pool execution is
bitwise-identical to the in-thread path
(``tests/serve/test_differential.py``), because both sides load the
same checksummed artifact and run the same numpy code.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import queue
import threading
import time

import numpy as np

from repro import obs
from repro.resilience import faults
from repro.serve.codec import arrays_to_graphs, graphs_to_arrays
from repro.utils import wire

__all__ = ["FAULT_POINT", "InferencePool", "PoolError", "register_pool_metrics"]

#: Fault-injection point fired inside a pool worker, matched on the job
#: id (``kill@pool_worker:2`` kills the worker processing job 2).
FAULT_POINT = "pool_worker"

_POOL_METRIC_HELP = {
    "serve_pool_workers": "Live inference-pool worker processes.",
    "serve_pool_jobs_total": "Fused batches executed by pool workers.",
    "serve_pool_respawns_total": "Pool workers respawned after a death.",
    "serve_pool_degradations_total": "Pools that spent their respawn budget and degraded.",
    "serve_pool_fallback_jobs_total": "Pool jobs the server re-ran in-thread after a PoolError.",
}


def register_pool_metrics() -> None:
    """Pre-register the pool metric surface at its zero state."""
    for name in _POOL_METRIC_HELP:
        if name.endswith("_total"):
            obs.counter(name)
        else:
            obs.gauge(name)
    registry = obs.get_metrics()
    for name, help_text in _POOL_METRIC_HELP.items():
        registry.describe(name, help_text)


class PoolError(RuntimeError):
    """A pool job failed for a reason that is not a worker death, or the
    pool is degraded; the caller runs the batch in-thread instead."""


class _WorkerDied(RuntimeError):
    """The worker process exited mid-job (crash or injected kill)."""


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

def _pool_worker_main(conn, worker_id: int) -> None:
    """Job loop of one inference worker process.

    Receives :func:`~repro.utils.wire.pack_message` frames over the
    pipe, tensors inline.
    Per-job errors are answered (``ok: false``) and the loop continues;
    an :class:`~repro.resilience.faults.InjectedFault` escapes on
    purpose — killing the process so the parent exercises its respawn
    path exactly as it would for a real crash.
    """
    obs.reset()  # a forked child must not share the parent's run file
    from repro.core.persistence import load_model

    models: dict[str, object] = {}
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            return
        header, arrays = wire.unpack_message(blob)
        op = header.get("op")
        if op == "shutdown":
            conn.send_bytes(wire.pack_message({"ok": True, "op": "bye"}))
            return
        job = int(header.get("job", -1))
        try:
            faults.check(FAULT_POINT, job)
            graphs = arrays_to_graphs(arrays)
            path = header["model_path"]
            model = models.get(path)
            if model is None:
                models.clear()  # hold at most one model per worker
                model = models[path] = load_model(path)
            if op == "predict_proba":
                out = model.predict_proba(graphs)
            elif op == "predict":
                out = model.predict(graphs)
            else:
                raise PoolError(f"unknown pool op {op!r}")
            reply = wire.pack_message(
                {"ok": True, "job": job, "worker": worker_id},
                {"result": np.ascontiguousarray(out)},
            )
        except Exception as exc:  # noqa: BLE001 - answered, loop continues
            reply = wire.pack_message(
                {"ok": False, "job": job, "error": f"{type(exc).__name__}: {exc}"}
            )
        conn.send_bytes(reply)


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, ctx, worker_id: int) -> None:
        self.id = worker_id
        self.conn, child_conn = mp.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, worker_id),
            name=f"repro-serve-pool-{worker_id}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def recv(self, poll_s: float = 0.05) -> tuple[dict, dict[str, np.ndarray]]:
        """Receive one reply, raising :class:`_WorkerDied` on worker death."""
        while True:
            if self.conn.poll(poll_s):
                try:
                    blob = self.conn.recv_bytes()
                except (EOFError, OSError):
                    raise _WorkerDied(f"worker {self.id} died mid-job") from None
                return wire.unpack_message(blob)
            if not self.proc.is_alive():
                # One final poll: the reply may have landed between the
                # last poll and the death check.
                if self.conn.poll(0):
                    continue
                raise _WorkerDied(
                    f"worker {self.id} exited with code {self.proc.exitcode}"
                )

    def close(self, timeout_s: float = 2.0) -> None:
        """Shut the worker down, escalating to terminate/kill."""
        try:
            if self.proc.is_alive():
                self.conn.send_bytes(
                    wire.pack_message({"op": "shutdown"})
                )
                deadline = time.monotonic() + timeout_s
                while self.proc.is_alive() and time.monotonic() < deadline:
                    # Drain any straggler replies so the child can exit.
                    if self.conn.poll(0.02):
                        try:
                            self.conn.recv_bytes()
                        except (EOFError, OSError):
                            break
        except (BrokenPipeError, OSError):
            pass
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=timeout_s)
        if self.proc.is_alive():  # pragma: no cover - last resort
            self.proc.kill()
            self.proc.join(timeout=timeout_s)
        self.conn.close()


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------

class InferencePool:
    """A fixed-size pool of inference worker processes.

    Parameters
    ----------
    model_path:
        Artifact the workers load (per-job headers may override it, so
        hot-swapped registry entries reach the pool without a restart).
    workers:
        Worker-process count, fixed for the pool's lifetime (a dead
        worker's replacement takes its place).
    max_respawns:
        Replacement-worker budget; once spent the pool degrades and
        every subsequent job raises :class:`PoolError`.

    ``submit`` is thread-safe: batcher-pool drainer threads call it
    concurrently, each job checking out one idle worker (blocking while
    all are busy).
    """

    def __init__(
        self,
        model_path: str,
        *,
        workers: int = 1,
        max_respawns: int = 3,
        name: str = "default",
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.model_path = str(model_path)
        self.name = name
        self.max_respawns = max_respawns
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._size = workers
        self._lock = threading.Lock()
        self._workers: dict[int, _WorkerHandle] = {}
        self._idle: queue.Queue[_WorkerHandle] = queue.Queue()
        self._ids = itertools.count()
        self._jobs = itertools.count()
        self._respawns = 0
        self._degraded = False
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "InferencePool":
        register_pool_metrics()
        with self._lock:
            if self._started:
                return self
            self._started = True
            for _ in range(self._size):
                self._spawn_locked()
        return self

    def _spawn_locked(self) -> None:
        handle = _WorkerHandle(self._ctx, next(self._ids))
        self._workers[handle.id] = handle
        self._idle.put(handle)
        obs.gauge("serve_pool_workers").set(len(self._workers))

    def stop(self) -> None:
        with self._lock:
            workers, self._workers = dict(self._workers), {}
            self._started = False
            while True:
                try:
                    self._idle.get_nowait()
                except queue.Empty:
                    break
        for handle in workers.values():
            handle.close()
        obs.gauge("serve_pool_workers").set(0)

    @property
    def workers(self) -> int:
        with self._lock:
            return len(self._workers)

    @property
    def degraded(self) -> bool:
        return self._degraded

    @property
    def respawns(self) -> int:
        return self._respawns

    def describe(self) -> dict:
        """JSON-safe pool state for ``GET /healthz``."""
        return {
            "backend": "pool",
            "workers": self.workers,
            "respawns": self._respawns,
            "max_respawns": self.max_respawns,
            "degraded": self._degraded,
        }

    # -- job execution --------------------------------------------------
    def _checkout(self) -> _WorkerHandle | None:
        """One idle live worker, or ``None`` when the pool is degraded."""
        while True:
            if self._degraded:
                return None
            try:
                handle = self._idle.get(timeout=0.1)
            except queue.Empty:
                with self._lock:
                    if not self._workers and self._started:
                        # Every worker died and the budget is spent.
                        return None
                continue
            if handle.alive:
                return handle
            self._note_death(handle)

    def _checkin(self, handle: _WorkerHandle) -> None:
        with self._lock:
            if handle.id in self._workers:
                self._idle.put(handle)
                return
        handle.close()  # stop() dropped it while it ran this job

    def _note_death(self, handle: _WorkerHandle) -> None:
        """Account a dead worker; respawn within budget, else degrade."""
        with self._lock:
            if self._workers.pop(handle.id, None) is None:
                return  # already dropped by stop()
            obs.event(
                "pool_worker_died",
                pool=self.name,
                worker=handle.id,
                respawns=self._respawns,
            )
            if self._respawns >= self.max_respawns:
                # Budget spent: this death degrades instead of respawning.
                if not self._degraded:
                    self._degraded = True
                    obs.counter("serve_pool_degradations_total").inc()
                    obs.event(
                        "pool_degraded", pool=self.name, respawns=self._respawns
                    )
                obs.gauge("serve_pool_workers").set(len(self._workers))
            else:
                self._respawns += 1
                obs.counter("serve_pool_respawns_total").inc()
                self._spawn_locked()
        handle.close()

    def submit(
        self, graphs, op: str = "predict_proba", model_path: str | None = None
    ) -> np.ndarray:
        """Run one fused batch on a pool worker; bitwise == in-thread.

        Retries transparently across worker deaths (each death burns
        one respawn); once the budget is spent the job — and every job
        after it — raises :class:`PoolError`, as does a pool with no
        workers.
        """
        if not self._started:
            raise PoolError("pool is not started")
        path = self.model_path if model_path is None else str(model_path)
        arrays = graphs_to_arrays(list(graphs))
        while True:
            handle = self._checkout()
            if handle is None:
                raise PoolError(f"pool {self.name!r} is degraded: no live worker")
            try:
                result = self._run_job(handle, arrays, op, path)
            except _WorkerDied:
                self._note_death(handle)
                continue
            except BaseException:
                # Job-level failure with a healthy worker (e.g. a
                # PoolError reply): the worker goes back to the idle
                # queue, never leaks out of it.
                if handle.alive:
                    self._checkin(handle)
                else:
                    self._note_death(handle)
                raise
            self._checkin(handle)
            return result

    def _run_job(
        self,
        handle: _WorkerHandle,
        arrays: dict[str, np.ndarray],
        op: str,
        path: str,
    ) -> np.ndarray:
        header = {"op": op, "job": next(self._jobs), "model_path": path}
        try:
            handle.conn.send_bytes(wire.pack_message(header, arrays))
        except (BrokenPipeError, OSError):
            raise _WorkerDied(f"worker {handle.id} pipe closed") from None
        reply, reply_arrays = handle.recv()
        if reply.get("job") != header["job"]:
            raise _WorkerDied(
                f"worker {handle.id} answered job {reply.get('job')} "
                f"instead of {header['job']}"
            )
        if not reply.get("ok"):
            raise PoolError(reply.get("error", "pool worker error"))
        obs.counter("serve_pool_jobs_total").inc()
        return reply_arrays["result"]
