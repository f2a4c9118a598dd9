"""Fold-parallel execution for the cross-validation protocols.

The paper's whole evaluation surface is 10-fold CV repeated over 15
datasets x 3 feature maps; the folds are embarrassingly parallel once
the shared preprocessing (gram matrix / feature maps) is done.
:func:`run_folds` maps a *top-level* function over per-fold payloads
with a ``fork`` process pool and falls back to a plain loop whenever
parallelism is unavailable or pointless, guaranteeing the two paths
produce bitwise-identical results (``tests/parallel/`` locks this
down).

Design rules that make the parallel path deterministic:

* **Explicit seeding.**  Workers never draw from inherited RNG state:
  every payload carries its own seed, spawned up front in the parent,
  so fold *k* sees the same stream whether it runs first, last, serial,
  concurrent, or requeued after a crash.
* **Inherited context, pickled payloads.**  Large shared inputs (gram
  matrix, graph lists) and non-picklable factories travel to workers by
  ``fork`` inheritance through a module global; only the small per-fold
  payloads and results cross the pipe.
* **Observability survives the boundary.**  When instrumentation is on,
  each worker records into a fresh in-process ``repro.obs`` context and
  ships its finished span trees / metric snapshots / events back with
  the result; the parent grafts them under its open ``cv`` span
  (:func:`repro.obs.merge_worker`), so ``--profile`` trees and cache
  hit/miss counters look the same as a serial run.

Crash resilience (``tests/resilience/`` exercises every branch):

* A worker that raises an ordinary ``Exception`` ships the full
  traceback text back to the parent, which raises :class:`FoldError`
  with the worker's stack inline — no more opaque pickled remnants.
* A worker that *dies* (``os._exit``, OOM-kill, segfault) breaks the
  pool; the parent detects it, requeues the unfinished folds on a fresh
  pool (their payloads already carry their seeds, so retried folds stay
  deterministic), and after ``max_retries`` pool rebuilds degrades to
  running the survivors serially in the parent process.
* ``on_result(index, result)`` fires in the parent as each fold
  completes — crash-journaling hooks (``repro.resilience.journal``)
  use it to persist finished folds before a later fold can take the
  process down.

``REPRO_WORKERS`` sets the default worker count for every protocol
entry point that is not given an explicit ``workers=`` argument (the
CLI flag ``--workers`` wins over the environment).  ``workers <= 0``
means "all CPUs".
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro import obs

__all__ = [
    "WORKERS_ENV",
    "FoldError",
    "resolve_workers",
    "fork_available",
    "parallelism_available",
    "run_folds",
]

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: (fn, context, capture_obs) inherited by forked workers; only ever set
#: around a pool invocation in :func:`run_folds`.
_FORK_CONTEXT: tuple | None = None

#: Set in each pool worker.  Executor workers are not daemonic, so this
#: flag (inherited by any grandchild fork) is what keeps a nested
#: :func:`run_folds` inside a fold from forking a pool of its own.
_IN_FOLD_WORKER = False


class FoldError(RuntimeError):
    """A fold function raised inside a worker process.

    The worker's full traceback text is embedded in the message (and
    kept on ``worker_traceback``), so the parent's stack trace shows
    *where in the fold* the failure happened, not just that a pickled
    exception crossed the pipe.
    """

    def __init__(self, index, worker_traceback: str) -> None:
        super().__init__(
            f"fold {index} failed in worker process:\n{worker_traceback}"
        )
        self.index = index
        self.worker_traceback = worker_traceback


@dataclass
class _WorkerFailure:
    """Picklable sentinel carrying a worker's traceback to the parent."""

    index: int
    traceback: str


def resolve_workers(workers: int | None = None) -> int:
    """Normalise a worker count: ``None`` -> ``$REPRO_WORKERS`` -> 1.

    ``workers <= 0`` requests one worker per CPU.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            workers = 1
    workers = int(workers)
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def parallelism_available() -> bool:
    """True when a process pool can actually be created here.

    Requires ``fork`` (context inheritance) and not already being inside
    a fold worker (or any daemonic process): one pool per ``run_folds``
    tree is enough, and nested pools would multiply processes without
    bounds.
    """
    return (
        fork_available()
        and not _IN_FOLD_WORKER
        and not multiprocessing.current_process().daemon
    )


def _fold_entry(task):
    """Pool worker body: run one fold under an isolated obs context.

    Ordinary fold failures return a :class:`_WorkerFailure` (the parent
    re-raises them as :class:`FoldError`); only process death — or an
    injected :class:`~repro.resilience.faults.InjectedFault`, which is a
    ``BaseException`` precisely so no handler here can swallow it —
    escapes this function.
    """
    global _IN_FOLD_WORKER
    _IN_FOLD_WORKER = True
    index, payload = task
    try:
        return _fold_body(index, payload)
    except Exception:
        return _WorkerFailure(index, traceback.format_exc())


def _fold_body(index, payload):
    from repro import cache as cache_mod

    assert _FORK_CONTEXT is not None, "worker forked outside run_folds"
    fn, context, capture = _FORK_CONTEXT
    # The default cache object (if any) was inherited by fork along with
    # its stats at fork time; snapshot so only this fold's delta ships
    # back.  Disk entries written by workers land in the shared dir, but
    # their hit/miss counts would otherwise die with the process.
    cache = cache_mod.get_cache()
    stats_before = cache.stats.as_dict() if cache is not None else None
    if not capture:
        result = fn(context, payload)
        delta = cache.stats.diff(stats_before) if cache is not None else None
        return index, result, {"cache_stats": delta}
    # The fork inherited the parent's enabled obs context — including an
    # open span stack and possibly a JSONL sink.  Detach the sink (the
    # parent's copy of the file stays open; emit() flushes after every
    # write, so there is nothing buffered to duplicate) and start a
    # fresh, in-memory-only recording for this fold.
    obs.get_event_log().close()
    obs.disable()
    obs.reset()
    obs.enable()
    try:
        result = fn(context, payload)
        worker_obs = obs.capture_worker()
    finally:
        obs.disable()
        obs.reset()
    delta = cache.stats.diff(stats_before) if cache is not None else None
    worker_obs["cache_stats"] = delta
    return index, result, worker_obs


def _consume(output, results, remaining, capture, cache, on_result):
    """Fold one worker output into the parent's state."""
    if isinstance(output, _WorkerFailure):
        raise FoldError(output.index, output.traceback)
    index, result, worker_obs = output
    if cache is not None and worker_obs:
        cache.stats.merge(worker_obs.get("cache_stats"))
    if capture:
        obs.merge_worker(worker_obs)
    results[index] = result
    remaining.pop(index, None)
    if on_result is not None:
        on_result(index, result)


def run_folds(
    fn,
    payloads,
    *,
    context=None,
    workers: int | None = None,
    on_result=None,
    max_retries: int = 2,
) -> list:
    """Run ``fn(context, payload)`` for every payload; results in order.

    ``fn`` must be a module-level function (pickled by reference).
    ``context`` holds the shared read-only inputs; it reaches workers by
    fork inheritance, so it may contain non-picklable objects such as
    closures.  Falls back to a sequential loop when ``workers`` resolves
    to 1, there are fewer than two payloads, or the platform cannot
    fork — the fallback calls ``fn`` identically, so results match the
    pool bitwise.

    ``on_result(index, result)`` is invoked in the parent as each fold
    finishes (completion order in the pool, payload order serially); use
    it to journal completed folds incrementally.

    If a worker process dies, the unfinished folds are requeued onto a
    fresh pool up to ``max_retries`` times; once retries are exhausted
    the remaining folds run serially in the parent.  A fold that raises
    an ordinary exception is *not* retried — the error is deterministic
    — and surfaces as :class:`FoldError` carrying the worker traceback.
    """
    payloads = list(payloads)
    workers = min(resolve_workers(workers), len(payloads) or 1)
    if workers <= 1 or not parallelism_available():
        results = []
        for index, payload in enumerate(payloads):
            result = fn(context, payload)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results

    global _FORK_CONTEXT
    capture = obs.enabled()
    previous = _FORK_CONTEXT
    _FORK_CONTEXT = (fn, context, capture)
    from repro import cache as cache_mod

    cache = cache_mod.get_cache()
    results: dict[int, object] = {}
    remaining = dict(enumerate(payloads))
    attempts = 0
    try:
        mp_ctx = multiprocessing.get_context("fork")
        while remaining and attempts <= max_retries:
            executor = ProcessPoolExecutor(
                max_workers=min(workers, len(remaining)), mp_context=mp_ctx
            )
            try:
                futures = [
                    executor.submit(_fold_entry, (index, remaining[index]))
                    for index in sorted(remaining)
                ]
                for future in as_completed(futures):
                    _consume(
                        future.result(), results, remaining, capture, cache, on_result
                    )
            except BrokenProcessPool:
                attempts += 1
                obs.counter("fold_crashes_total").inc()
                obs.counter("fold_retries_total").inc(
                    len(remaining) if attempts <= max_retries else 0
                )
                obs.event(
                    "worker_crash",
                    remaining=sorted(remaining),
                    attempt=attempts,
                    max_retries=max_retries,
                )
            finally:
                executor.shutdown(wait=False, cancel_futures=True)
    finally:
        _FORK_CONTEXT = previous
    if remaining:
        # Retries exhausted: graceful degradation — finish the surviving
        # folds serially in the parent.  Payload seeds make the results
        # identical to what the pool would have produced.
        obs.counter("fold_degradations_total").inc()
        obs.event("parallel_degraded", folds=sorted(remaining))
        for index in sorted(remaining):
            result = fn(context, remaining[index])
            results[index] = result
            if on_result is not None:
                on_result(index, result)
    if capture:
        # Workers merged their final samples as worker_* series above;
        # refresh the parent's own resource_* gauges to the same instant
        # so a post-run snapshot pairs both sides consistently.
        from repro.obs.resources import publish_resources

        publish_resources()
    return [results[index] for index in range(len(payloads))]
