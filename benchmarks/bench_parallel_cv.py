"""Fold-parallel CV and feature-map cache: speedup + parity bench.

Measures, and records to ``BENCH_parallel.json`` in the repo root:

* serial vs fold-parallel wall time for the kernel-SVM and neural CV
  protocols (the tentpole claim: folds fan out across a fork pool), and
* cold vs warm wall time for the cached feature-map + encode path.

Speedup from a process pool is physically bounded by the core count, so
the >= 1.8x assertion only arms on machines with >= 4 CPUs; on smaller
boxes the numbers are still recorded (honestly, with ``cpu_count``) and
the *parity* assertions — identical accuracies either way, bitwise-equal
tensors cold vs warm — always run: a wrong answer is never an acceptable
price for speed.

Run with ``pytest benchmarks/bench_parallel_cv.py``.
"""

from __future__ import annotations

import json
import os
import timeit
from pathlib import Path

import numpy as np
import pytest

from benchmarks._common import CONFIG, bench_dataset, print_header
from repro.cache import FeatureMapCache
from repro.core import DeepMapEncoder, deepmap_wl
from repro.eval import evaluate_kernel_svm, evaluate_neural_model
from repro.features import WLVertexFeatures, extract_vertex_feature_matrices
from repro.kernels import WeisfeilerLehmanKernel
from repro.parallel import parallelism_available

#: Worker count benched against serial (the acceptance configuration).
WORKERS = 4
#: Required speedup when the hardware can actually provide it.
MIN_SPEEDUP = 1.8
#: JSON artifact path (repo root).
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

_cores = os.cpu_count() or 1
_speedup_armed = _cores >= WORKERS

needs_fork = pytest.mark.skipif(
    not parallelism_available(), reason="fork pool unavailable on this platform"
)


def _record(section: str, payload: dict) -> None:
    """Merge one section into ``BENCH_parallel.json`` (best effort)."""
    results: dict = {}
    if RESULT_PATH.exists():
        try:
            results = json.loads(RESULT_PATH.read_text())
        except (OSError, ValueError):
            results = {}
    results["cpu_count"] = _cores
    results["workers"] = WORKERS
    results["config"] = {
        "scale": CONFIG.scale,
        "folds": CONFIG.folds,
        "epochs": CONFIG.epochs,
        "seed": CONFIG.seed,
    }
    results[section] = payload
    RESULT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def _time(fn) -> tuple[float, object]:
    start = timeit.default_timer()
    value = fn()
    return timeit.default_timer() - start, value


@needs_fork
def test_kernel_cv_speedup():
    print_header(f"Fold-parallel kernel CV: 1 vs {WORKERS} workers ({_cores} CPUs)")
    ds = bench_dataset("PTC_MR")
    kernel = WeisfeilerLehmanKernel(3)

    def run(workers):
        return evaluate_kernel_svm(
            kernel, ds, n_splits=CONFIG.folds, seed=CONFIG.seed, workers=workers
        )

    run(1)  # warmup: imports, first-touch allocations
    serial_s, serial = _time(lambda: run(1))
    parallel_s, parallel = _time(lambda: run(WORKERS))
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(
        f"serial {serial_s:.2f}s  parallel {parallel_s:.2f}s  "
        f"speedup {speedup:.2f}x  (assertion armed: {_speedup_armed})"
    )
    _record(
        "kernel_cv",
        {
            "dataset": ds.name,
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "speedup": speedup,
            "speedup_armed": _speedup_armed,
            "accuracy": serial.mean,
        },
    )
    assert parallel.fold_accuracies == serial.fold_accuracies
    assert parallel.extra["selected_c"] == serial.extra["selected_c"]
    if _speedup_armed:
        assert speedup >= MIN_SPEEDUP


@needs_fork
def test_neural_cv_speedup():
    print_header(f"Fold-parallel neural CV: 1 vs {WORKERS} workers ({_cores} CPUs)")
    ds = bench_dataset("MUTAG")
    factory = lambda fold: deepmap_wl(h=2, r=3, epochs=CONFIG.epochs, seed=fold)

    def run(workers):
        return evaluate_neural_model(
            factory,
            ds,
            n_splits=CONFIG.folds,
            seed=CONFIG.seed,
            name="deepmap-wl",
            workers=workers,
        )

    serial_s, serial = _time(lambda: run(1))
    parallel_s, parallel = _time(lambda: run(WORKERS))
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(
        f"serial {serial_s:.2f}s  parallel {parallel_s:.2f}s  "
        f"speedup {speedup:.2f}x  (assertion armed: {_speedup_armed})"
    )
    _record(
        "neural_cv",
        {
            "dataset": ds.name,
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "speedup": speedup,
            "speedup_armed": _speedup_armed,
            "accuracy": serial.mean,
            "best_epoch": serial.best_epoch,
        },
    )
    assert parallel.fold_accuracies == serial.fold_accuracies
    assert parallel.best_epoch == serial.best_epoch
    if _speedup_armed:
        assert speedup >= MIN_SPEEDUP


def test_cache_cold_vs_warm(tmp_path):
    print_header("Feature-map cache: cold vs warm extract + encode")
    ds = bench_dataset("PTC_MR")
    extractor = WLVertexFeatures(h=3)

    def pipeline(cache):
        matrices, _ = extract_vertex_feature_matrices(
            ds.graphs, extractor, cache=cache
        )
        encoder = DeepMapEncoder(r=5).fit(ds.graphs)
        return encoder.encode(ds.graphs, matrices, cache=cache)

    pipeline(None)  # warmup without any cache in play
    uncached_s, baseline = _time(lambda: pipeline(None))
    cache = FeatureMapCache(cache_dir=tmp_path)
    cold_s, cold = _time(lambda: pipeline(cache))
    warm_s, warm = _time(lambda: pipeline(cache))
    fresh = FeatureMapCache(cache_dir=tmp_path)  # disk tier only
    disk_s, disk = _time(lambda: pipeline(fresh))
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(
        f"uncached {uncached_s:.3f}s  cold {cold_s:.3f}s  "
        f"warm {warm_s:.3f}s  disk-warm {disk_s:.3f}s  ({speedup:.1f}x)"
    )
    _record(
        "cache_encode",
        {
            "dataset": ds.name,
            "uncached_s": uncached_s,
            "cold_s": cold_s,
            "warm_memory_s": warm_s,
            "warm_disk_s": disk_s,
            "speedup_cold_over_warm": speedup,
            "disk_entries": cache.disk_usage()[0],
            "disk_bytes": cache.disk_usage()[1],
        },
    )
    # Warm hits must replay the exact bits the cold run produced.
    everything = np.arange(len(ds.graphs))
    for encoded in (warm, disk):
        np.testing.assert_array_equal(
            encoded.take_rows(everything), cold.take_rows(everything)
        )
        np.testing.assert_array_equal(encoded.vertex_mask, cold.vertex_mask)
    np.testing.assert_array_equal(
        cold.take_rows(everything), baseline.take_rows(everything)
    )
    assert cache.stats.hits > 0 and fresh.stats.disk_hits > 0
    # A warm replay that is slower than recomputing would make the cache
    # pointless; allow generous slack for timer jitter on tiny inputs.
    assert warm_s < uncached_s * 1.5
