"""Streamed out-of-core training, bitwise-equal to materialized fit.

:func:`fit_stream` trains a :class:`~repro.core.model.DeepMapClassifier`
on a :class:`~repro.datasets.streaming.StreamingGraphDataset` without
ever materializing the full graph list or the full encoding.  It
mirrors ``DeepMapClassifier.fit`` stage for stage:

1. **Vocabulary pass** — shards are regenerated from seeds and their
   vertex feature counts fed, shard by shard, to the same
   ``FeatureVocabulary.from_counts`` the materialized fit calls; the
   substructure totals, the ``max_features`` truncation and the frozen
   vocabulary come out identical because the extractors are
   batch-independent, integer totals are order-exact, and
   ``FeatureVocabulary.freeze`` sorts keys (insertion order never
   matters).  The same pass tracks ``max(g.n)`` for the encoder width.
2. **Encode pass** — each shard's encoding is built once and spilled to
   the feature-map cache (:class:`~repro.stream.shards.EncodedShardStore`);
   per-shard encodes equal slices of the full encode (the pipeline's
   documented chunk invariance).
3. **Training** — the Trainer consumes the
   :class:`~repro.stream.shards.EncodedShardStore` itself: identical RNG
   choreography (network init, then the trainer's shuffle seed drawn
   from the same stream), identical shuffle permutations, and
   ``take_rows`` gathers bitwise-equal batches, so weights, history and
   predictions match the materialized fit exactly.
   ``tests/equivalence/test_stream_equiv.py`` asserts all of this.

Peak RSS stays bounded by (LRU-resident shards + one batch + the CNN);
a background :class:`~repro.obs.resources.ResourceSampler` samples it
into the ``resource_*`` obs gauges throughout training.
"""

from __future__ import annotations

import numpy as np

from repro import cache as cache_mod
from repro import obs
from repro.core.architecture import build_deepmap_cnn
from repro.core.pipeline import DeepMapEncoder
from repro.datasets.streaming import StreamingGraphDataset
from repro.features.vertex_maps import cached_vertex_counts
from repro.features.vocabulary import FeatureVocabulary
from repro.nn.model import Trainer
from repro.obs.resources import ResourceSampler, publish_resources
from repro.stream.shards import EncodedShardStore, make_spool_cache
from repro.utils.rng import as_rng

__all__ = ["fit_stream"]

#: Seconds between background resource samples while training on a
#: shard store (each epoch's telemetry samples as well).
STREAM_RESOURCE_INTERVAL_S = 1.0


def fit_stream(
    model,
    stream: StreamingGraphDataset,
    shard_size: int = 64,
    epoch_callback=None,
    cache=None,
):
    """Train ``model`` on ``stream`` out of core; returns ``model``.

    Parameters
    ----------
    model:
        An unfitted :class:`~repro.core.model.DeepMapClassifier`.
    stream:
        ``make_dataset(name, scale, seed, stream=True)``.
    shard_size:
        Graphs per encoded shard (the unit of regeneration and caching).
    cache:
        Disk-backed :class:`~repro.cache.FeatureMapCache`; defaults to
        ``model.cache``, then the process cache, then a private
        temp-dir spool removed when the fit returns.
    """
    y = stream.labels()
    cache = cache if cache is not None else model.cache
    cache = cache if cache is not None else cache_mod.get_cache()
    spool = None
    if cache is None or cache.cache_dir is None:
        cache, spool = make_spool_cache()
    try:
        with obs.span(
            "fit_stream",
            model=f"deepmap-{model.extractor.name}",
            graphs=len(stream),
            shard_size=shard_size,
        ):
            model.classes_ = np.unique(y)
            class_index = {int(c): i for i, c in enumerate(model.classes_)}
            targets = np.array([class_index[int(v)] for v in y])

            # Pass 1: streamed vocabulary + encoder width.
            max_nodes = 0

            def shard_counts():
                nonlocal max_nodes
                for shard in stream.iter_shards(shard_size):
                    max_nodes = max(max_nodes, max(g.n for g in shard.graphs))
                    yield from cached_vertex_counts(
                        model.extractor, shard.graphs, cache=cache
                    )

            with obs.span(
                "stream_vocab_fit",
                extractor=model.extractor.name,
                shards=stream.num_shards(shard_size),
            ):
                model.vocabulary_ = FeatureVocabulary.from_counts(
                    shard_counts(), model.max_features
                )
            model.encoder_ = DeepMapEncoder(
                r=model.r, ordering=model.ordering
            ).fit_width([max_nodes])

            # Pass 2: encode every shard once, spilling to the cache.
            store = EncodedShardStore(
                stream,
                model.extractor,
                model.vocabulary_,
                model.encoder_,
                shard_size,
                cache=cache,
            )
            store.warm()

            # Training: identical RNG choreography to the materialized
            # ``DeepMapClassifier.fit`` (init rng, then the trainer's
            # shuffle seed from the same stream).
            rng = as_rng(model.seed)
            model.network_ = build_deepmap_cnn(
                m=store.m,
                r=model.r,
                num_classes=model.classes_.size,
                readout=model.readout,
                w=store.w,
                rng=rng,
            )
            trainer = Trainer(
                batch_size=model.batch_size,
                epochs=model.epochs,
                seed=rng.integers(0, 2**31 - 1),
            )
            # Watch peak RSS while the epochs consume the store; the
            # closing publish covers fits shorter than the interval.
            sampler = ResourceSampler(
                interval_s=STREAM_RESOURCE_INTERVAL_S, extra=store.gauges
            )
            with obs.span(
                "train",
                epochs=model.epochs,
                batch_size=model.batch_size,
                streamed=True,
            ), sampler:
                model.history_ = trainer.fit(
                    model.network_, store, targets, epoch_callback=epoch_callback
                )
            publish_resources()
    finally:
        if spool is not None:
            spool.cleanup()
    return model
