"""Partitioned feature store: shard-local warming + sharded gram assembly.

Each dist worker owns one contiguous partition of a
:class:`~repro.datasets.streaming.StreamingGraphDataset`
(:func:`repro.stream.partition_bounds`), regenerates its graphs from
their 8-byte seeds, and publishes the expensive per-shard artifact — the
vertex feature counts of the run's extractor — into its local
:class:`~repro.cache.FeatureMapCache` under the *unchanged*
content-addressed ``counts`` key.  Because every worker derives the same
partition bounds from ``(n, num_shards)``, the key a worker warms is
byte-for-byte the key any peer computes when it needs that shard: a
remote fetch is a plain cache ``get`` that fell through to the KV
protocol.

:func:`sharded_gram` is the consumer: it assembles the full gram matrix
from per-shard counts (local tiers first, then peers via the cache's
remote tier, then recompute) and is **bitwise-equal** to
``kernel.gram(all_graphs)`` because every repo extractor is
batch-independent — a graph's vertex counts do not depend on which batch
it was extracted in (WL colors are content-derived splitmix64 codes, GK
samples from a content-derived RNG, SP distances are per-graph) — and
the frozen vocabulary sorts its keys, so it is insensitive to the order
counts were merged in.  ``tests/dist/test_store.py`` pins this parity
for all three extractors.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro import obs
from repro.cache import FeatureMapCache
from repro.datasets.streaming import StreamingGraphDataset
from repro.features.vertex_maps import cached_vertex_counts
from repro.features.vocabulary import FeatureVocabulary
from repro.kernels.base import ExplicitFeatureKernel
from repro.stream import partition_bounds

__all__ = ["shard_graphs", "warm_shard_counts", "sharded_gram"]


def shard_graphs(
    stream: StreamingGraphDataset, shard_index: int, num_shards: int
) -> list:
    """Regenerate the graphs of one contiguous partition."""
    start, stop = partition_bounds(len(stream), num_shards, shard_index)
    return stream.shard(start, stop).graphs


def warm_shard_counts(
    extractor,
    stream: StreamingGraphDataset,
    shard_index: int,
    num_shards: int,
    cache: FeatureMapCache,
) -> int:
    """Extract (and cache) the vertex counts of one shard; returns its size.

    After this, the shard's ``counts`` key answers locally — including
    to peers asking over the KV protocol.
    """
    graphs = shard_graphs(stream, shard_index, num_shards)
    with obs.span(
        "dist_warm_shard", shard=shard_index, shards=num_shards, graphs=len(graphs)
    ):
        if graphs:
            cached_vertex_counts(extractor, graphs, cache=cache)
    obs.counter("dist_shards_warmed_total").inc()
    return len(graphs)


def sharded_gram(
    kernel,
    stream: StreamingGraphDataset,
    num_shards: int,
    cache: FeatureMapCache | None,
) -> np.ndarray:
    """The full gram matrix, assembled from per-shard vertex counts.

    For :class:`ExplicitFeatureKernel` subclasses (GK, SP, WL — the
    paper's three feature maps) each shard's counts come from the cache
    (memory → disk → remote peer → recompute), are concatenated in shard
    order, and feed the exact single-GEMM assembly ``kernel.gram`` uses;
    batch-independent extraction plus the sorted frozen vocabulary make
    the result bitwise-equal to ``kernel.gram(stream.materialize().graphs)``.
    Implicit kernels have no per-shard decomposition — they fall back to
    materializing the dataset.
    """
    if not isinstance(kernel, ExplicitFeatureKernel):
        return kernel.gram(stream.materialize().graphs)
    with obs.span("dist_gram", kernel=kernel.name, shards=num_shards):
        counts: list = []
        for shard_index in range(num_shards):
            graphs = shard_graphs(stream, shard_index, num_shards)
            if not graphs:
                continue
            counts.extend(
                cached_vertex_counts(kernel.extractor, graphs, cache=cache)
            )
        vocab = FeatureVocabulary.from_counts(counts)
        table = vocab.vectorize_rows(chain.from_iterable(counts))
        return kernel._assemble_gram(table.segment_sums([len(vc) for vc in counts]))
