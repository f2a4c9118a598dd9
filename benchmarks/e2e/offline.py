"""In-process workloads: batch scoring, cached scoring and CV training."""

from __future__ import annotations

import gc
import itertools
import shutil
import time

import numpy as np

from benchmarks.e2e import fixtures, tracing
from benchmarks.e2e.common import (
    Context,
    Result,
    operation,
    overhead_pct,
    rounds,
    same_bits,
    timed,
    warm_up,
)
from benchmarks.e2e.metrics import peak_rss_mb

CHUNK = 32
SETUP_REPS = 5
SETUP_SECONDS = 0.5  # each time a part sets up: at its start and after its timed work
SAMPLED = 16  # graphs whose single-graph answer is checked against the batch
CV_FOLDS = 3
CV_EPOCHS = 5
SMOKE_CV = (0.25, 2)  # MUTAG scale and epochs of a smoke CV
#: Mean fold accuracy read 0.81-0.85 over seeds 1-6 on the fixed folds
#: (the two classes are balanced); the floor catches a model that stopped
#: learning, not noise.
ACCURACY_FLOOR = 0.70


def _scoring_setup(ctx: Context, result: Result):
    """Train the IMDB fixture, time ``load_model``, compute the reference."""
    model = _load_model(ctx, result)
    graphs = fixtures.request_graphs("imdb", ctx.seed)
    return model, graphs, model.predict_proba(graphs, chunk_size=CHUNK)


def _load_model(ctx: Context, result: Result):
    from repro.core.persistence import load_model

    return _repeat_setup(ctx, result, load_model, fixtures.build("imdb", ctx.smoke))


def _repeat_setup(ctx: Context, result: Result, fn, *args):
    """``fn(*args)`` at least ``SETUP_REPS`` times and for at least
    ``SETUP_SECONDS``; every duration goes to ``result.setups``, and the
    last value is returned.

    Each part of a run sets up at its start and again after its timed
    work.  On a shared machine pure-Python code slows by half for bursts
    of half a second to a second, long enough to cover a few set-ups end
    to end; spread over the run, their median sees through such bursts.
    Only one value is kept at a time, so set-up leaves no copies behind
    to raise the run's peak memory.
    """
    end = time.perf_counter() + (0.0 if ctx.smoke else SETUP_SECONDS)
    start = len(result.setups)
    while len(result.setups) - start < SETUP_REPS or time.perf_counter() < end:
        value = None  # release the last copy before making the next
        took, value = timed(fn, *args)
        result.setups.append(took)
    return value


def score_batch(ctx: Context) -> Result:
    """``predict_proba(96 graphs, chunk_size=32)`` repeated, no cache."""
    result = Result()
    model, graphs, reference = _scoring_setup(ctx, result)
    rng = np.random.default_rng(ctx.seed)
    for i in rng.choice(len(graphs), size=SAMPLED, replace=False):
        result.check(same_bits(model.predict_proba([graphs[i]]), reference[i : i + 1]))
    warm_up(ctx, lambda: result.check(same_bits(model.predict_proba(graphs, CHUNK), reference)))

    tracer = tracing.Tracer()
    passes: dict[bool, list[float]] = {False: [], True: []}
    for traced in rounds(ctx):
        with operation(tracer if traced else None):
            seconds, out = timed(model.predict_proba, graphs, CHUNK)
        passes[traced].append(seconds)
        result.check(same_bits(out, reference))

    result.latencies = passes[False]
    result.work = [[len(graphs), seconds] for seconds in passes[False]]
    result.peak_rss_mb = peak_rss_mb()
    _load_model(ctx, result)
    if ctx.trace:
        cache_calls = sum(1 for s in tracer.spans if s.name.startswith("cache."))
        result.check(cache_calls == 0)  # this workload must bypass the cache
        result.layers = _layers(tracer, passes)
    return result


def score_cached(ctx: Context) -> Result:
    """Cold then two warm passes through a fresh on-disk cache, repeated."""
    from repro.cache import FeatureMapCache

    result = Result()
    model, graphs, reference = _scoring_setup(ctx, result)
    tracer = tracing.Tracer()
    cycles: dict[bool, list[float]] = {False: [], True: []}
    caches: list[FeatureMapCache] = []
    disk_bytes = 0
    count = itertools.count()

    def cycle(traced: bool) -> list[float]:
        """One cold and two warm passes through a fresh cache directory."""
        nonlocal disk_bytes
        directory = ctx.work / f"cache-{next(count)}"
        passes = []
        try:
            with operation(tracer if traced else None):
                for _ in range(3):
                    # A new cache object per pass: warm hits come from
                    # disk, as on a rerun, never from the memory tier.
                    model.cache = FeatureMapCache(directory)
                    seconds, out = timed(model.predict_proba, graphs, CHUNK)
                    passes.append(seconds)
                    result.check(same_bits(out, reference))
                    if traced:
                        caches.append(model.cache)
                    if len(passes) == 1:
                        disk_bytes = max(disk_bytes, model.cache.disk_usage()[1])
        finally:
            model.cache = None
            shutil.rmtree(directory, ignore_errors=True)
        return passes

    warm_up(ctx, lambda: cycle(False))
    for traced in rounds(ctx):
        passes = cycle(traced)
        cycles[traced].append(sum(passes))
        if not traced:
            result.latencies += passes[1:]
            result.work.append([len(passes) * len(graphs), sum(passes)])
            result.reading("cold_pass_ms", 1000.0 * passes[0])
    result.peak_rss_mb = peak_rss_mb()
    _load_model(ctx, result)
    if ctx.trace:
        layers = _layers(tracer, cycles)
        hits = sum(c.stats.hits for c in caches)
        misses = sum(c.stats.misses for c in caches)
        layers.update(
            {
                "cache.hits": hits,
                "cache.misses": misses,
                "cache.hit_ratio": hits / (hits + misses),
                "cache.errors": sum(c.stats.errors for c in caches),
                "cache.disk_mb": disk_bytes / 2**20,
            }
        )
        result.layers = layers
    return result


def train_cv(ctx: Context) -> Result:
    """``make_dataset`` then 3-fold ``evaluate_neural_model``, repeated.

    The run's seed picks each fold's initialisation and shuffling.  The
    graphs and the folds come from ``fixtures.DATA_SEED``: each fold's
    vocabulary sets the width of its tensors, so folds drawn from the
    run's seed moved the run's time and peak memory with the seed.
    """
    from repro import deepmap_wl, evaluate_neural_model, make_dataset

    scale, epochs = SMOKE_CV if ctx.smoke else (1.0, CV_EPOCHS)
    result = Result()
    dataset = ("MUTAG", scale, fixtures.DATA_SEED)
    data = _repeat_setup(ctx, result, make_dataset, *dataset)
    graph_epochs = (CV_FOLDS - 1) * len(data) * epochs

    tracer = tracing.Tracer()
    runs: dict[bool, list[float]] = {False: [], True: []}
    curves = []
    for traced in rounds(ctx):
        stamps: list[list[float]] = []

        def factory(fold):
            model = deepmap_wl(
                h=fixtures.WL_H, r=fixtures.FIELD_R, epochs=epochs, batch_size=32, seed=ctx.seed + fold
            )
            stamps.append([])
            return _EpochStamps(model, stamps[-1])

        with operation(tracer if traced else None):
            seconds, cv = timed(
                lambda: evaluate_neural_model(factory, data, n_splits=CV_FOLDS, seed=fixtures.DATA_SEED, workers=1)
            )
        gc.collect()  # the next CV starts from the same heap, whatever this one left
        runs[traced].append(seconds)
        curves.append(cv.extra["fold_val_curves"])
        result.check(ctx.smoke or cv.mean >= ACCURACY_FLOOR)
        if not traced:
            result.latencies += [b - a for ends in stamps for a, b in zip(ends, ends[1:])]
            result.work.append([graph_epochs, seconds])
            result.reading("cv_s", seconds)
            result.reading("mean_accuracy", cv.mean)
    if ctx.trace:
        result.check(all(c == curves[0] for c in curves))  # tracing changes no result

    result.peak_rss_mb = peak_rss_mb()
    _repeat_setup(ctx, result, make_dataset, *dataset)
    if ctx.trace:
        result.layers = _layers(tracer, runs)
    return result


class _EpochStamps:
    """A fold's model that records when each of its epochs ends.

    Wraps rather than patches the model: a patched ``fit`` that refers
    back to its model makes a reference cycle, and each fold's tensors
    then lived until the collector next ran, so peak memory depended
    on when that was.
    """

    def __init__(self, model, ends: list[float]) -> None:
        self.model = model
        self.ends = ends

    def fit(self, *args, **kwargs):
        ends = self.ends
        self.model.fit(*args, epoch_callback=lambda e, h: ends.append(time.perf_counter()), **kwargs)
        return self

    @property
    def history_(self):
        return self.model.history_


def _layers(tracer: tracing.Tracer, ops: dict[bool, list[float]]) -> dict[str, float]:
    layers = tracing.op_shares(tracer.spans)
    layers["alignment.centrality.calls_per_graph"] = tracing.centrality_calls_per_graph(tracer.spans)
    layers["tracing_overhead"] = overhead_pct(ops[True], ops[False])
    return layers
