"""EncodedShardStore vs the materialized encoding."""

from __future__ import annotations

from itertools import chain

import numpy as np
import pytest

from repro.cache import FeatureMapCache
from repro.core import deepmap_wl
from repro.core.pipeline import DeepMapEncoder
from repro.datasets import make_dataset
from repro.features.vertex_maps import cached_vertex_counts
from repro.features.vocabulary import FeatureVocabulary
from repro.stream import EncodedShardStore, make_spool_cache

from tests.oracles.core import dense_input


@pytest.fixture()
def encoded_reference():
    """The fully materialized pipeline: vocab, encoder, (n, w*r, m) input."""
    eager = make_dataset("MUTAG", scale=0.03, seed=0)
    stream = make_dataset("MUTAG", scale=0.03, seed=0, stream=True)
    model = deepmap_wl(h=2, r=3, epochs=1, seed=0)
    counts = cached_vertex_counts(model.extractor, eager.graphs)
    totals: dict = {}
    for vertex_counts in counts:
        for counter in vertex_counts:
            for key, value in counter.items():
                totals[key] = totals.get(key, 0) + value
    vocab = FeatureVocabulary(totals.keys())
    encoder = DeepMapEncoder(r=model.r, ordering=model.ordering).fit_width(
        [max(g.n for g in eager.graphs)]
    )
    table = vocab.vectorize_rows(chain.from_iterable(counts))
    full = dense_input(encoder.encode(eager.graphs, table))
    return eager, stream, model, vocab, encoder, full


def make_store(stream, model, vocab, encoder, shard_size):
    cache, spool = make_spool_cache()
    store = EncodedShardStore(
        stream, model.extractor, vocab, encoder, shard_size, cache=cache
    )
    return store, spool


@pytest.mark.parametrize("shard_size", [1, 4, 7, 10_000])
def test_shard_tensors_equal_slices_of_the_full_encode(
    encoded_reference, shard_size
):
    _, stream, model, vocab, encoder, full = encoded_reference
    store, spool = make_store(stream, model, vocab, encoder, shard_size)
    with spool:
        store.warm()
        for s in range(store.num_shards):
            start = s * shard_size
            stop = min(start + shard_size, store.n)
            block = dense_input(store.encoded(s))
            assert block.dtype == full.dtype
            assert block.tobytes() == full[start:stop].tobytes()
        assert store.reencodes == 0


def test_take_rows_matches_fancy_indexing_bitwise(encoded_reference):
    _, stream, model, vocab, encoder, full = encoded_reference
    store, spool = make_store(stream, model, vocab, encoder, shard_size=4)
    with spool:
        store.warm()
        assert store.shape == full.shape
        rng = np.random.default_rng(0)
        for size in (1, 3, full.shape[0]):
            idx = rng.permutation(full.shape[0])[:size]
            got = store.take_rows(idx)
            want = full[idx]
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        empty = store.take_rows(np.array([], dtype=np.int64))
        assert empty.shape == (0, full.shape[1], full.shape[2])


def test_cache_eviction_triggers_reencode_not_error(encoded_reference):
    _, stream, model, vocab, encoder, full = encoded_reference
    store, spool = make_store(stream, model, vocab, encoder, shard_size=4)
    with spool:
        store.warm()
        # Wipe both tiers: every later read is a miss that regenerates
        # the shard from seeds — identical bytes, just slower.
        store.cache.clear()
        block = dense_input(store.encoded(0))
        assert block.tobytes() == full[:4].tobytes()
        assert store.reencodes == 1


def test_shard_keys_match_the_materialized_encode_keys(encoded_reference):
    eager, stream, model, vocab, encoder, full = encoded_reference
    shard_size = 4
    store, spool = make_store(stream, model, vocab, encoder, shard_size)
    with spool:
        store.warm()
        counts = cached_vertex_counts(model.extractor, eager.graphs)
        for s in range(store.num_shards):
            start = s * shard_size
            stop = min(start + shard_size, store.n)
            want = encoder.encode_key(
                eager.graphs[start:stop],
                vocab.vectorize_rows(chain.from_iterable(counts[start:stop])),
            )
            assert store._keys[s] == want


def test_store_requires_a_disk_backed_cache(encoded_reference):
    _, stream, model, vocab, encoder, _ = encoded_reference
    memory_only = FeatureMapCache(cache_dir=None)
    with pytest.raises(ValueError, match="disk-backed"):
        EncodedShardStore(
            stream, model.extractor, vocab, encoder, 4, cache=memory_only
        )


def test_store_rejects_bad_shard_size_and_index(encoded_reference):
    _, stream, model, vocab, encoder, _ = encoded_reference
    with pytest.raises(ValueError):
        make_store(stream, model, vocab, encoder, shard_size=0)
    store, spool = make_store(stream, model, vocab, encoder, shard_size=4)
    with spool:
        with pytest.raises(IndexError):
            store.encode_shard(store.num_shards)
