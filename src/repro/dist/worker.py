"""The dist worker: shard owner, KV server, and fold executor.

A worker is one process (or, in tests, one thread group) that

* owns a contiguous shard ``index/num_shards`` of the run's
  :class:`~repro.datasets.streaming.StreamingGraphDataset` — handed to
  it as numbers, reconstructed locally from the dataset spec
  (host-agnostic: nothing is fork-inherited);
* serves its local :class:`~repro.cache.FeatureMapCache` over the KV
  ops (``kv_get`` answers from the local tiers only, so peer lookups
  can never recurse);
* executes ``run_fold`` jobs with the *exact* fold bodies the serial
  protocols use (:func:`repro.eval.protocol._kernel_fold` /
  ``_neural_fold``) — same seeds in, same floats out, and the same
  ``fold`` fault point, so an injected ``kill`` takes the whole worker
  process down mid-fold exactly like a fork-pool worker death.

Connections are handled by one thread each; folds are serialized by a
lock (a worker advertises one fold at a time — scheduling is the
coordinator's job).  Per-run evaluation context (gram matrix or
materialized graphs) is built once on first use and keyed by the
coordinator's journal ``run_key``.

Observability crosses the socket the same way it crosses the fork
boundary: when a ``run_fold`` request asks for capture, the worker
records into a fresh in-process obs context and ships the finished span
trees / metrics / events back in the reply header
(:func:`repro.obs.capture_worker` → coordinator-side
:func:`repro.obs.merge_worker`), plus the fold's cache-stats delta.
"""

from __future__ import annotations

import socket
import threading
import traceback

from repro import obs
from repro.cache import FeatureMapCache
from repro.dist import protocol
from repro.dist.client import RemoteCacheClient
from repro.dist.store import sharded_gram, warm_shard_counts
from repro.eval.protocol import _kernel_fold, _neural_fold
from repro.kernels.base import normalize_gram
from repro.obs.events import jsonable
from repro.svm.svc import DEFAULT_C_GRID
from repro.utils.wire import WireError

__all__ = ["DistWorker"]


class DistWorker:
    """One shard-owning socket worker (see module docstring).

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    shard_index / num_shards:
        This worker's contiguous partition of every run's dataset.  All
        workers of a deployment must share ``num_shards`` — that is what
        makes their ``counts`` cache keys line up for peer fetches.
    cache:
        The local :class:`FeatureMapCache`; defaults to a memory-only
        cache.  ``warm`` installs the peer KV client as its remote tier.
    worker_id:
        Stable identifier reported in ``ping``/``info`` (defaults to
        ``shard<index>``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shard_index: int = 0,
        num_shards: int = 1,
        cache: FeatureMapCache | None = None,
        worker_id: str | None = None,
    ) -> None:
        if not 0 <= shard_index < num_shards:
            raise ValueError(
                f"shard_index {shard_index} out of range for {num_shards} shards"
            )
        self.host = host
        self.port = int(port)
        self.shard_index = int(shard_index)
        self.num_shards = int(num_shards)
        self.cache = cache if cache is not None else FeatureMapCache()
        self.worker_id = worker_id or f"shard{shard_index}"
        self._server: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._fold_lock = threading.Lock()
        self._runs: dict[str, dict] = {}
        self._runs_lock = threading.Lock()
        self._remote: RemoteCacheClient | None = None
        self.folds_executed = 0

    # -- lifecycle -------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind, listen, and serve in background threads."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, self.port))
        server.listen(32)
        server.settimeout(0.2)  # poll the stop flag between accepts
        self.port = server.getsockname()[1]
        self._server = server
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"dist-worker-{self.worker_id}",
            daemon=True,
        )
        self._accept_thread.start()
        return self.host, self.port

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` op) is called."""
        if self._server is None:
            self.start()
        self._stop.wait()

    def stop(self) -> None:
        self._stop.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        if self._remote is not None:
            self._remote.close()
            self._remote = None

    def __enter__(self) -> "DistWorker":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- accept / dispatch ----------------------------------------------
    def _accept_loop(self) -> None:
        assert self._server is not None
        while not self._stop.is_set():
            try:
                conn, _addr = self._server.accept()
            except TimeoutError:
                continue
            except OSError:
                break  # server socket closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while not self._stop.is_set():
                try:
                    message = protocol.recv_message(conn)
                except (WireError, OSError):
                    break  # torn frame / reset peer: drop the connection
                if message is None:
                    break  # clean peer close
                header, arrays = message
                obs.counter("dist_requests_total").inc()
                if not self._dispatch(conn, header, arrays):
                    break
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, conn, header: dict, arrays: dict) -> bool:
        """Handle one request; False ends the connection (shutdown).

        Ordinary failures become ``ok: false`` replies; an injected
        :class:`~repro.resilience.faults.InjectedFault` (``BaseException``)
        deliberately escapes — the connection dies without a reply, the
        coordinator sees a broken worker, exactly like a pool crash.
        """
        op = header.get("op")
        try:
            reply_header, reply_arrays = self._handle(op, header, arrays)
        except Exception:
            reply_header, reply_arrays = (
                {"ok": False, "error": traceback.format_exc()},
                None,
            )
        try:
            sent = protocol.send_message(conn, reply_header, reply_arrays)
            obs.counter("dist_bytes_sent_total").inc(sent)
        except OSError:
            return False
        if op == protocol.OP_SHUTDOWN and reply_header.get("ok"):
            self.stop()
            return False
        return True

    def _handle(self, op, header, arrays):
        if op == protocol.OP_PING:
            return {"ok": True, "worker_id": self.worker_id}, None
        if op == protocol.OP_INFO:
            return (
                {
                    "ok": True,
                    "worker_id": self.worker_id,
                    "shard_index": self.shard_index,
                    "num_shards": self.num_shards,
                    "folds_executed": self.folds_executed,
                    "cache_stats": self.cache.stats.as_dict(),
                },
                None,
            )
        if op == protocol.OP_SHUTDOWN:
            return {"ok": True}, None
        if op == protocol.OP_KV_GET:
            return self._kv_get(header)
        if op == protocol.OP_KV_PUT:
            key = str(header["key"])
            self.cache.put(key, arrays, namespace=header.get("namespace", ""))
            return {"ok": True}, None
        if op == protocol.OP_WARM:
            return self._warm(header)
        if op == protocol.OP_RUN_FOLD:
            return self._run_fold(header, arrays)
        return {"ok": False, "error": f"unknown op {op!r}"}, None

    # -- KV --------------------------------------------------------------
    def _kv_get(self, header):
        key = str(header["key"])
        namespace = header.get("namespace", "")
        # local_only: a miss here must answer "no", not ask *our* peers —
        # two empty caches would otherwise ping-pong forever.
        payload = self.cache.get(key, namespace=namespace, local_only=True)
        obs.counter("dist_kv_requests_total").inc()
        if payload is None:
            return {"ok": True, "hit": False}, None
        return {"ok": True, "hit": True}, dict(payload)

    # -- warm ------------------------------------------------------------
    def _warm(self, header):
        run = header["run"]
        peers = [
            (str(host), int(port)) for host, port in header.get("peers", [])
        ]
        if self._remote is not None:
            self._remote.close()
        self._remote = RemoteCacheClient(peers) if peers else None
        self.cache.remote = self._remote
        warmed = 0
        kernel = protocol.kernel_for(run["model"])
        if kernel is not None:
            stream = protocol.dataset_from_spec(run["dataset"])
            warmed = warm_shard_counts(
                kernel.extractor,
                stream,
                self.shard_index,
                self.num_shards,
                self.cache,
            )
        return {"ok": True, "worker_id": self.worker_id, "warmed": warmed}, None

    # -- folds -----------------------------------------------------------
    def _context(self, run_key: str, run: dict):
        """The evaluation context for a run (built once, then reused)."""
        with self._runs_lock:
            entry = self._runs.get(run_key)
            if entry is not None:
                return entry
            stream = protocol.dataset_from_spec(run["dataset"])
            kernel = protocol.kernel_for(run["model"])
            if kernel is not None:
                gram = sharded_gram(
                    kernel, stream, self.num_shards, self.cache
                )
                if run.get("normalize", True):
                    gram = normalize_gram(gram)
                context = (
                    gram,
                    stream.labels(),
                    tuple(run.get("c_grid", DEFAULT_C_GRID)),
                )
                entry = {"fold_fn": _kernel_fold, "context": context}
            else:
                factory = protocol.model_factory_for(
                    run["model"], int(run.get("epochs", 15))
                )
                if factory is None:
                    raise ValueError(f"unknown model {run['model']!r}")
                dataset = stream.materialize()
                entry = {
                    "fold_fn": _neural_fold,
                    "context": (factory, dataset.graphs, dataset.y),
                }
            self._runs[run_key] = entry
            return entry

    def _run_fold(self, header, arrays):
        run_key = str(header["run_key"])
        fold = int(header["fold"])
        capture = bool(header.get("capture", False))
        entry = self._context(run_key, header["run"])
        train_idx = arrays["train_idx"]
        test_idx = arrays["test_idx"]
        if "fold_seed" in header and header["fold_seed"] is not None:
            payload = (fold, train_idx, test_idx, int(header["fold_seed"]))
        else:
            payload = (fold, train_idx, test_idx)
        with self._fold_lock:
            stats_before = self.cache.stats.as_dict()
            if not capture:
                with obs.span("dist_fold_exec", fold=fold, worker=self.worker_id):
                    result = entry["fold_fn"](entry["context"], payload)
                worker_obs = {}
            else:
                # Record this fold into a fresh obs context and ship it
                # back — the coordinator grafts it under its own span
                # tree, mirroring the fork-pool capture protocol.
                obs.disable()
                obs.reset()
                obs.enable()
                try:
                    result = entry["fold_fn"](entry["context"], payload)
                    worker_obs = obs.capture_worker()
                finally:
                    obs.disable()
                    obs.reset()
            self.folds_executed += 1
        obs.counter("dist_folds_executed_total").inc()
        worker_obs["cache_stats"] = self.cache.stats.diff(stats_before)
        # jsonable(): numpy scalars → floats, exactly what the journal
        # applies — a wire round trip is as lossless as a journal one.
        return (
            {
                "ok": True,
                "fold": fold,
                "worker_id": self.worker_id,
                "result": jsonable(result),
                "worker_obs": jsonable(worker_obs),
            },
            None,
        )

    def __repr__(self) -> str:
        return (
            f"DistWorker({self.worker_id} @ {self.host}:{self.port}, "
            f"shard {self.shard_index}/{self.num_shards})"
        )
