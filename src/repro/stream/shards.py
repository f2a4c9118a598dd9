"""Out-of-core encoded shards behind the two-tier feature-map cache.

:class:`EncodedShardStore` turns a :class:`StreamingGraphDataset` plus a
fitted vocabulary/encoder into a row-addressable CNN input source:

* :meth:`warm` encodes every shard once — graphs are regenerated from
  their seeds, vertex feature maps extracted, and the shard's
  :class:`~repro.core.pipeline.EncodedDataset` built — routing
  everything through a :class:`~repro.cache.FeatureMapCache` under the
  **unchanged** content-addressed key scheme (``counts``/``enc``
  namespaces, keyed by shard content).  The store records each shard's
  ``enc`` key, which is all it needs to reload the encoding later.
* :meth:`encoded` serves a shard by key: memory-LRU hit → the in-memory
  payload; disk hit → *memory-mapped* read-only views of the ``.npz``
  entry (resident cost ≈ the pages a batch actually touches); evicted
  or corrupted entry → regenerate + re-encode the shard from seeds (a
  cache miss is never an error, exactly as everywhere else in the
  repo).
* The store is itself the Trainer input: it exposes ``shape`` and
  ``take_rows(idx)``, gathering arbitrary row subsets by grouping
  indices per shard — bitwise-identical to ``take_rows`` on the fully
  materialized encoding.

Peak memory is therefore bounded by ``memory_items`` shard payloads
(the cache's LRU tier) plus one mini-batch, independent of dataset
size.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import obs
from repro.cache import FeatureMapCache
from repro.core.pipeline import DeepMapEncoder, EncodedDataset
from repro.datasets.streaming import StreamingGraphDataset
from repro.features.vertex_maps import cached_vertex_counts
from repro.utils.validation import check_positive

__all__ = [
    "EncodedShardStore",
    "make_spool_cache",
    "partition_bounds",
]


def partition_bounds(n: int, num_parts: int, index: int) -> tuple[int, int]:
    """Bounds ``[start, stop)`` of contiguous partition ``index`` of ``n``.

    The balanced split ``(i*n//P, (i+1)*n//P)``: parts differ in size by
    at most one, cover ``range(n)`` exactly, and depend only on
    ``(n, num_parts, index)`` — a dist worker handed ``index/num_parts``
    derives its shard of a :class:`StreamingGraphDataset` without any
    state from the process that launched it (host-agnostic handoff).
    """
    check_positive("num_parts", num_parts)
    if not 0 <= index < num_parts:
        raise IndexError(f"partition {index} out of range for {num_parts}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return index * n // num_parts, (index + 1) * n // num_parts

#: Memory-LRU capacity (shard payloads) for a store-owned spool cache.
#: Two is the sweet spot measured in benchmarks/bench_stream_pipeline.py:
#: evicted payloads reload as mmap views (cheap), while a deeper LRU
#: pins whole shard payloads resident for no throughput gain.
DEFAULT_RESIDENT_SHARDS = 2


def make_spool_cache(memory_items: int = DEFAULT_RESIDENT_SHARDS):
    """A private disk-backed cache in a temp dir, plus its holder.

    Used when no process cache with a disk tier is configured: streaming
    out of core *requires* a disk tier to spill encoded shards to.
    Returns ``(cache, tmpdir)`` — keep ``tmpdir`` referenced for the
    cache's lifetime (its destructor removes the directory).
    """
    tmpdir = tempfile.TemporaryDirectory(prefix="repro-stream-spool-")
    return FeatureMapCache(cache_dir=tmpdir.name, memory_items=memory_items), tmpdir


class EncodedShardStore:
    """Per-shard encodings, cached and reloadable by key.

    Duck-types the Trainer's row-source protocol: ``shape`` (row counts)
    and ``take_rows(idx)`` (mini-batch gathers).

    Parameters
    ----------
    stream:
        The lazy dataset.
    extractor:
        Vertex feature extractor (must be batch-independent, which all
        repo extractors are — a shard's features equal the same graphs'
        features inside the full dataset).
    vocabulary:
        The frozen :class:`~repro.features.vocabulary.FeatureVocabulary`
        from the streamed vocabulary pass.
    encoder:
        A fitted :class:`~repro.core.pipeline.DeepMapEncoder` (``w``
        fixed).
    shard_size:
        Graphs per shard.
    cache:
        A :class:`~repro.cache.FeatureMapCache` **with a disk tier**.
    """

    def __init__(
        self,
        stream: StreamingGraphDataset,
        extractor,
        vocabulary,
        encoder: DeepMapEncoder,
        shard_size: int,
        cache: FeatureMapCache,
    ) -> None:
        check_positive("shard_size", shard_size)
        if cache.cache_dir is None:
            raise ValueError(
                "EncodedShardStore needs a disk-backed cache to spill shards "
                "to (see make_spool_cache)"
            )
        assert encoder.w is not None, "encoder must be fitted before sharding"
        self.stream = stream
        self.extractor = extractor
        self.vocabulary = vocabulary
        self.encoder = encoder
        self.shard_size = shard_size
        self.cache = cache
        self.n = len(stream)
        self.num_shards = stream.num_shards(shard_size)
        self.w = int(encoder.w)
        self.r = int(encoder.r)
        self.m = int(vocabulary.size)
        self.shape = (self.n, self.w * self.r, self.m)
        self._keys: list[str | None] = [None] * self.num_shards
        self.reencodes = 0  # shards regenerated after a cache miss

    # -- per-shard encode ------------------------------------------------
    def _bounds(self, s: int) -> tuple[int, int]:
        if not 0 <= s < self.num_shards:
            raise IndexError(f"shard {s} out of range for {self.num_shards}")
        start = s * self.shard_size
        return start, min(start + self.shard_size, self.n)

    def encode_shard(self, s: int) -> EncodedDataset:
        """Generate, featurize and encode shard ``s`` (cache-routed).

        Records the shard's ``enc`` cache key so later :meth:`encoded`
        calls can reload the payload without regenerating graphs.
        """
        start, stop = self._bounds(s)
        with obs.span("stream_encode_shard", shard=s, graphs=stop - start):
            shard = self.stream.shard(start, stop)
            counts = cached_vertex_counts(
                self.extractor, shard.graphs, cache=self.cache
            )
            table = self.vocabulary.vectorize_rows(counts)
            self._keys[s] = self.encoder.encode_key(shard.graphs, table)
            encoded = self.encoder.encode(shard.graphs, table, cache=self.cache)
        obs.counter("stream_graphs_encoded_total").inc(stop - start)
        return encoded

    def warm(self) -> "EncodedShardStore":
        """Encode every shard once, in order, on the caller's thread.

        Encodings are *not* retained — they live in the cache tiers only.
        """
        with obs.span(
            "stream_warm", shards=self.num_shards, shard_size=self.shard_size
        ):
            for s in range(self.num_shards):
                self.encode_shard(s)
        return self

    # -- row access ------------------------------------------------------
    def encoded(self, s: int) -> EncodedDataset:
        """The encoding of shard ``s`` (cache-first)."""
        key = self._keys[s]
        if key is not None:
            encoded = self.encoder.cached(key, self.cache)
            if encoded is not None:
                return encoded
        # Evicted from both tiers (or corrupted, or never warmed):
        # regenerate from seeds and re-encode — a miss, not an error.
        self.reencodes += 1
        obs.counter("stream_shard_reencodes_total").inc()
        return self.encode_shard(s)

    def take_rows(self, idx: np.ndarray) -> np.ndarray:
        """Dense CNN input of rows ``idx``, loading each touched shard once."""
        idx = np.asarray(idx, dtype=np.int64)
        out = np.empty((idx.size, self.shape[1], self.shape[2]), dtype=np.float64)
        if idx.size == 0:
            return out
        shard_of = idx // self.shard_size
        for s in np.unique(shard_of):
            mask = shard_of == s
            local = idx[mask] - int(s) * self.shard_size
            out[mask] = self.encoded(int(s)).take_rows(local)
        obs.counter("stream_rows_gathered_total").inc(int(idx.size))
        return out

    def gauges(self) -> dict:
        """Live gauges for the resource sampler's ``extra`` hook."""
        return {
            "stream_resident_shard_payloads": float(len(self.cache)),
            "stream_shard_reencodes": float(self.reencodes),
        }

    def __repr__(self) -> str:
        return (
            f"EncodedShardStore(n={self.n}, shards={self.num_shards}x"
            f"{self.shard_size}, w={self.w}, r={self.r}, m={self.m})"
        )

