"""Coordinator: schedules CV folds across socket workers, exactly once.

The coordinator is the distributed counterpart of
:func:`repro.eval.protocol.evaluate_kernel_svm` /
``evaluate_neural_model`` — same payloads (splits + per-fold seeds
spawned up front from one rng), same journal ``run_config`` (so run
keys are identical and a serial journal resumes a distributed run and
vice versa), same outcome reduction.  Only the executor differs, and
every fold result is bitwise what the serial executor produces.

Scheduling and failure semantics mirror :mod:`repro.parallel`:

* one dispatcher thread per worker pulls folds off a shared queue;
* a heartbeat monitor pings every worker on a dedicated connection;
  consecutive misses mark the worker dead and sever its job connection
  (which unblocks a dispatcher mid-wait);
* a fold in flight on a dead worker is requeued — bounded by
  ``max_fold_retries`` per fold, like the pool's crash requeue;
* folds whose retries are exhausted, or left over when every worker is
  dead, run serially in the coordinator through the same fold bodies —
  graceful degradation, never a lost fold;
* a worker *rejecting* a fold (``ok: false`` — a deterministic error)
  aborts the run like :class:`repro.parallel.FoldError`; retrying a
  deterministic failure elsewhere would only fail again.

Exactly-once completion rides on :mod:`repro.resilience.journal`: with a
``checkpoint_dir``, finished folds are journaled the moment their
result arrives (crash-safe commit log; a rerun recomputes zero finished
folds), and each fold is *claimed* (atomic link-published claim + heartbeat lease,
:class:`~repro.resilience.journal.FoldClaims`) before dispatch, so two
coordinators sharing a checkpoint directory can never double-run one.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.cache import dataset_fingerprint, stable_hash
from repro.dist import protocol
from repro.dist.client import DistError, WorkerClient, WorkerRejected
from repro.eval.protocol import (
    CVResult,
    _kernel_fold,
    _neural_fold,
    kernel_cv_result,
    kernel_fold_payloads,
    kernel_run_config,
    neural_cv_result,
    neural_fold_payloads,
    neural_run_config,
)
from repro.kernels.base import normalize_gram
from repro.resilience.journal import DEFAULT_CLAIM_TTL_S, FoldJournal
from repro.svm.svc import DEFAULT_C_GRID

__all__ = ["DistReport", "DistCoordinator", "run_spec"]


def run_spec(
    model: str,
    dataset: str,
    *,
    scale: float = 0.1,
    dataset_seed: int | None = 0,
    n_splits: int = 10,
    seed: int | None = 0,
    epochs: int = 15,
    c_grid=DEFAULT_C_GRID,
    normalize: bool = True,
) -> dict:
    """Build the JSON run spec the coordinator and workers share."""
    return {
        "model": model,
        "dataset": {"name": dataset, "scale": scale, "seed": dataset_seed},
        "n_splits": int(n_splits),
        "seed": seed,
        "epochs": int(epochs),
        "c_grid": [float(c) for c in c_grid],
        "normalize": bool(normalize),
    }


@dataclass
class DistReport:
    """A distributed CV outcome plus its scheduling diagnostics."""

    result: CVResult
    run_key: str
    dispatched: int = 0
    completed_remote: int = 0
    completed_from_journal: int = 0
    reassignments: int = 0
    worker_deaths: int = 0
    degraded_folds: list = field(default_factory=list)
    folds_by_worker: dict = field(default_factory=dict)


class _WorkerSlot:
    """Coordinator-side state for one worker."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)
        self.job = WorkerClient(host, port)
        self.heart = WorkerClient(host, port, timeout_s=5.0)
        self.worker_id = f"{host}:{port}"
        self.dead = threading.Event()
        self.misses = 0

    def mark_dead(self) -> None:
        """Declare the worker dead and sever both connections.

        Closing the job socket makes a dispatcher blocked in a
        keepalive wait fail over immediately instead of waiting out a
        timeout.
        """
        self.dead.set()
        self.job.close()
        self.heart.close()


class DistCoordinator:
    """Schedule one evaluation's folds across registered workers."""

    def __init__(
        self,
        workers: list[tuple[str, int]],
        *,
        heartbeat_interval_s: float = 0.5,
        heartbeat_misses: int = 3,
        max_fold_retries: int = 2,
        claim_ttl_s: float = DEFAULT_CLAIM_TTL_S,
    ) -> None:
        if not workers:
            raise ValueError("need at least one worker address")
        self.slots = [_WorkerSlot(host, port) for host, port in workers]
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_misses = int(heartbeat_misses)
        self.max_fold_retries = int(max_fold_retries)
        self.claim_ttl_s = float(claim_ttl_s)

    # -- registration ----------------------------------------------------
    def _register(self) -> None:
        """Validate the fleet: reachable, one shard each, one shard count.

        Unreachable workers are marked dead up front (the run degrades);
        inconsistent shard geometry is a deployment error and raises.
        """
        geometry: list[tuple[str, int, int]] = []
        for slot in self.slots:
            try:
                header, _ = slot.job.request({"op": protocol.OP_INFO})
            except DistError:
                slot.mark_dead()
                obs.counter("dist_worker_deaths_total").inc()
                continue
            slot.worker_id = str(header.get("worker_id", slot.worker_id))
            geometry.append(
                (
                    slot.worker_id,
                    int(header["shard_index"]),
                    int(header["num_shards"]),
                )
            )
        live = [s for s in self.slots if not s.dead.is_set()]
        if not live:
            return
        counts = {num for _, _, num in geometry}
        shards = [index for _, index, _ in geometry]
        if len(counts) != 1 or len(set(shards)) != len(shards):
            raise ValueError(
                f"inconsistent worker shard geometry: {geometry} "
                "(all workers must share num_shards and own distinct shards)"
            )

    # -- warm ------------------------------------------------------------
    def _warm(self, spec: dict) -> None:
        """Hand every live worker the run spec and its peer list."""
        peers_of = {
            slot: [
                [other.host, other.port]
                for other in self.slots
                if other is not slot and not other.dead.is_set()
            ]
            for slot in self.slots
        }

        def warm_one(slot: _WorkerSlot) -> None:
            try:
                slot.job.request(
                    {
                        "op": protocol.OP_WARM,
                        "run": spec,
                        "peers": peers_of[slot],
                    }
                )
            except WorkerRejected:
                raise
            except DistError:
                self._kill_slot(slot)

        threads = [
            threading.Thread(target=warm_one, args=(slot,), daemon=True)
            for slot in self.slots
            if not slot.dead.is_set()
        ]
        with obs.span("dist_warm", workers=len(threads)):
            for t in threads:
                t.start()
            for t in threads:
                t.join()

    def _kill_slot(self, slot: _WorkerSlot) -> None:
        if not slot.dead.is_set():
            slot.mark_dead()
            obs.counter("dist_worker_deaths_total").inc()
            obs.event("dist_worker_death", worker=slot.worker_id)

    # -- heartbeats ------------------------------------------------------
    def _heartbeat_loop(self, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval_s):
            for slot in self.slots:
                if slot.dead.is_set():
                    continue
                try:
                    slot.heart.ping()
                except DistError:
                    slot.misses += 1
                    obs.counter("dist_heartbeat_failures_total").inc()
                    if slot.misses >= self.heartbeat_misses:
                        self._kill_slot(slot)
                else:
                    slot.misses = 0
                    obs.counter("dist_heartbeats_total").inc()

    # -- the run ---------------------------------------------------------
    def run(
        self,
        spec: dict,
        *,
        checkpoint_dir: str | os.PathLike | None = None,
        resume: bool = True,
    ) -> DistReport:
        """Execute one CV evaluation distributedly; see module docstring."""
        kernel = protocol.kernel_for(spec["model"])
        stream = protocol.dataset_from_spec(spec["dataset"])
        y = stream.labels()
        n_splits = int(spec["n_splits"])
        seed = spec["seed"]
        # The journal run_config must hash identically to the serial
        # protocols' — dataset fingerprint needs the materialized graphs.
        dataset = stream.materialize()
        if kernel is not None:
            name = kernel.name
            config = kernel_run_config(
                kernel,
                dataset_fingerprint(dataset.graphs),
                y,
                n_splits,
                seed,
                tuple(spec.get("c_grid", DEFAULT_C_GRID)),
                bool(spec.get("normalize", True)),
            )
            payloads = kernel_fold_payloads(y, n_splits, seed)
        else:
            name = spec["model"]
            config = neural_run_config(
                name, dataset_fingerprint(dataset.graphs), y, n_splits, seed
            )
            payloads = neural_fold_payloads(y, n_splits, seed)
        run_key = stable_hash(config)

        journal = claims = None
        completed: dict[int, dict] = {}
        if checkpoint_dir is not None:
            journal = FoldJournal(
                Path(checkpoint_dir) / run_key / "folds.jsonl"
            )
            claims = journal.claims(
                owner=f"coordinator-{os.getpid()}", ttl_s=self.claim_ttl_s
            )
            if resume:
                completed = {
                    fold: result
                    for fold, result in journal.load().items()
                    if 0 <= fold < len(payloads)
                }
                if completed:
                    obs.event(
                        "dist_resume", run_key=run_key, folds=sorted(completed)
                    )
            else:
                journal.reset()

        report = DistReport(result=None, run_key=run_key)  # filled below
        report.completed_from_journal = len(completed)
        with obs.span(
            "dist_cv",
            model=spec["model"],
            folds=n_splits,
            workers=len(self.slots),
        ):
            self._register()
            self._warm(spec)
            outcomes = self._schedule(
                spec, run_key, payloads, completed, journal, claims, report
            )
            leftover = [f for f in range(len(payloads)) if f not in outcomes]
            if leftover:
                self._degrade(
                    leftover, payloads, kernel, spec, dataset, y,
                    journal, claims, outcomes, report,
                )
        report.worker_deaths = sum(
            1 for slot in self.slots if slot.dead.is_set()
        )
        ordered = [outcomes[fold] for fold in range(len(payloads))]
        if kernel is not None:
            report.result = kernel_cv_result(name, ordered)
        else:
            report.result = neural_cv_result(name, ordered)
        return report

    # -- scheduling ------------------------------------------------------
    def _schedule(
        self, spec, run_key, payloads, completed, journal, claims, report
    ) -> dict[int, dict]:
        capture = obs.enabled()
        outcomes: dict[int, dict] = dict(completed)
        retries: dict[int, int] = {}
        pending: queue.Queue = queue.Queue()
        for fold in range(len(payloads)):
            if fold not in outcomes:
                pending.put(fold)
        outstanding = {f for f in range(len(payloads)) if f not in outcomes}
        lock = threading.Lock()
        done = threading.Event()
        abort: list[BaseException] = []
        if not outstanding:
            done.set()
            return outcomes

        def finish(fold: int, result: dict, slot: _WorkerSlot) -> None:
            with lock:
                if fold not in outstanding:
                    return  # someone else (journal/steal) finished it
                if journal is not None:
                    journal.record(fold, result)
                if claims is not None:
                    claims.release(fold)
                outcomes[fold] = result
                outstanding.discard(fold)
                report.completed_remote += 1
                report.folds_by_worker.setdefault(slot.worker_id, []).append(fold)
                if not outstanding:
                    done.set()
            obs.counter("dist_jobs_completed_total").inc()

        def give_up(fold: int) -> None:
            """Retries exhausted (or no workers left): leave for serial."""
            with lock:
                if fold in outstanding and fold not in report.degraded_folds:
                    report.degraded_folds.append(fold)
                # Count degraded folds as schedulable-no-more: the
                # distributed phase must not wait for them.
                outstanding.discard(fold)
                if not outstanding:
                    done.set()

        def requeue(fold: int, slot: _WorkerSlot) -> None:
            retries[fold] = retries.get(fold, 0) + 1
            report.reassignments += 1
            obs.counter("dist_jobs_requeued_total").inc()
            live = any(not s.dead.is_set() for s in self.slots)
            if retries[fold] <= self.max_fold_retries and live:
                pending.put(fold)
            else:
                give_up(fold)

        def dispatch(slot: _WorkerSlot, fold: int) -> None:
            payload = payloads[fold]
            header = {
                "op": protocol.OP_RUN_FOLD,
                "run_key": run_key,
                "run": spec,
                "fold": fold,
                "fold_seed": payload[3] if len(payload) > 3 else None,
                "capture": capture,
            }
            arrays = {"train_idx": payload[1], "test_idx": payload[2]}

            def tick() -> None:
                if slot.dead.is_set():
                    raise DistError(f"worker {slot.worker_id} declared dead")
                if claims is not None:
                    claims.refresh(fold)

            with obs.span("dist_fold", fold=fold, worker=slot.worker_id):
                reply, _ = slot.job.request(header, arrays, tick=tick)
            if capture:
                worker_obs = reply.get("worker_obs") or {}
                with lock:
                    obs.merge_worker(worker_obs)
            finish(fold, reply["result"], slot)

        def dispatcher(slot: _WorkerSlot) -> None:
            while not done.is_set() and not slot.dead.is_set():
                try:
                    fold = pending.get(timeout=0.1)
                except queue.Empty:
                    continue
                with lock:
                    if fold not in outstanding:
                        continue
                if claims is not None and not claims.claim(fold):
                    # Another owner holds it (a concurrent coordinator).
                    # If it finished meanwhile, adopt the journaled
                    # result; otherwise back off and retry later.
                    adopted = journal.load().get(fold) if journal else None
                    if adopted is not None:
                        with lock:
                            if fold in outstanding:
                                outcomes[fold] = adopted
                                outstanding.discard(fold)
                                if not outstanding:
                                    done.set()
                        continue
                    pending.put(fold)
                    done.wait(self.claim_ttl_s / 10.0)
                    continue
                report.dispatched += 1
                obs.counter("dist_jobs_dispatched_total").inc()
                try:
                    dispatch(slot, fold)
                except WorkerRejected as exc:
                    # Deterministic worker-side failure: abort the run
                    # (mirrors FoldError — retrying cannot help).
                    if claims is not None:
                        claims.release(fold)
                    abort.append(exc)
                    done.set()
                except DistError:
                    if claims is not None:
                        claims.release(fold)
                    self._kill_slot(slot)
                    requeue(fold, slot)

        stop_heart = threading.Event()
        heart = threading.Thread(
            target=self._heartbeat_loop, args=(stop_heart,), daemon=True
        )
        heart.start()
        threads = [
            threading.Thread(target=dispatcher, args=(slot,), daemon=True)
            for slot in self.slots
            if not slot.dead.is_set()
        ]
        for t in threads:
            t.start()
        try:
            while not done.is_set():
                if all(not t.is_alive() for t in threads):
                    break  # every dispatcher exited (all workers dead)
                done.wait(0.1)
        finally:
            done.set()  # stop any dispatcher still polling the queue
            stop_heart.set()
            for t in threads:
                t.join(timeout=5.0)
            heart.join(timeout=5.0)
        if abort:
            raise abort[0]
        # Anything still queued (all workers died) degrades to serial.
        with lock:
            for fold in list(outstanding):
                if fold not in report.degraded_folds:
                    report.degraded_folds.append(fold)
        return outcomes

    # -- degradation -----------------------------------------------------
    def _degrade(
        self, leftover, payloads, kernel, spec, dataset, y,
        journal, claims, outcomes, report,
    ) -> None:
        """Run the unfinished folds serially in this process.

        Mirrors the fork pool's retry-exhausted path: same fold bodies,
        same payload seeds, a plain loop so no pool is spawned.
        The local context is rebuilt from the materialized dataset —
        bitwise what any worker computed.
        """
        leftover = sorted(leftover)
        obs.counter("dist_degradations_total").inc()
        obs.event("dist_degraded", folds=leftover)
        if kernel is not None:
            gram = kernel.gram(dataset.graphs)
            if spec.get("normalize", True):
                gram = normalize_gram(gram)
            context = (gram, y, tuple(spec.get("c_grid", DEFAULT_C_GRID)))
            fold_fn = _kernel_fold
        else:
            factory = protocol.model_factory_for(
                spec["model"], int(spec.get("epochs", 15))
            )
            context = (factory, dataset.graphs, y)
            fold_fn = _neural_fold
        for fold in leftover:
            result = fold_fn(context, payloads[fold])
            if journal is not None:
                journal.record(fold, result)
            if claims is not None:
                claims.release(fold)
            outcomes[fold] = result

    # -- teardown --------------------------------------------------------
    def close(self) -> None:
        for slot in self.slots:
            slot.job.close()
            slot.heart.close()

    def shutdown_workers(self) -> None:
        """Ask every live worker process to exit (best effort)."""
        for slot in self.slots:
            if not slot.dead.is_set():
                slot.job.shutdown()

    def __enter__(self) -> "DistCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
