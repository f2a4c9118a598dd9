"""Streamed-vs-materialized bitwise equivalence.

The streaming pipeline's contract is *bitwise* identity with the
materialized one — same tensors, same label order, same shuffle streams,
same cache keys — for every scale factor, dataset seed, shard size
(including single-graph shards), worker count, and graph shape
(including dummy-padded graphs smaller than the alignment width).
"""

from __future__ import annotations

import dataclasses
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import deepmap_wl
from repro.core.pipeline import DeepMapEncoder
from repro.datasets import DatasetSpec, StreamingGraphDataset, make_dataset
from repro.features.vertex_maps import cached_vertex_counts
from repro.features.vocabulary import FeatureVocabulary
from repro.graph import Graph
from repro.parallel import WORKERS_ENV
from repro.stream import EncodedShardStore, make_spool_cache

from tests.equivalence.conftest import assert_bitwise_equal, graph_batches
from tests.oracles.core import dense_input
from tests.stream.conftest import model_fingerprint

pytestmark = pytest.mark.stream

FIT_SETTINGS = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fresh_model(seed: int = 0):
    # Small hyperparameters keep each hypothesis example cheap; parity
    # is structural, not scale-dependent.
    return deepmap_wl(h=1, r=2, epochs=2, seed=seed)


def fit_both(scale, data_seed, model_seed, shard_size):
    eager = make_dataset("MUTAG", scale=scale, seed=data_seed)
    stream = make_dataset("MUTAG", scale=scale, seed=data_seed, stream=True)
    materialized = fresh_model(model_seed).fit(eager.graphs, eager.y)
    streamed = fresh_model(model_seed)
    streamed.fit_stream(stream, shard_size=shard_size)
    return eager, materialized, streamed


@FIT_SETTINGS
@given(
    scale=st.sampled_from([0.01, 0.02, 0.03]),
    data_seed=st.integers(0, 4),
    model_seed=st.integers(0, 3),
    shard_size=st.sampled_from([1, 3, 5, 10_000]),
)
def test_streamed_fit_is_bitwise_equal(scale, data_seed, model_seed, shard_size):
    # model_seed drives both network init and the trainer's shuffle
    # stream; shard_size=1 exercises single-graph shards and 10_000 the
    # one-shard (> n) case.
    eager, materialized, streamed = fit_both(
        scale, data_seed, model_seed, shard_size
    )
    assert model_fingerprint(streamed) == model_fingerprint(materialized)
    assert streamed.encoder_.w == materialized.encoder_.w
    assert streamed.vocabulary_.size == materialized.vocabulary_.size
    assert_bitwise_equal(
        streamed.classes_, materialized.classes_, "class order"
    )
    assert_bitwise_equal(
        streamed.predict(eager.graphs),
        materialized.predict(eager.graphs),
        "predictions",
    )


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_streamed_fit_parity_holds_for_any_worker_count(workers, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, str(workers))
    _, materialized, streamed = fit_both(0.02, 0, 0, shard_size=4)
    assert model_fingerprint(streamed) == model_fingerprint(materialized)


def test_streamed_labels_preserve_order():
    eager = make_dataset("SYNTHIE", scale=0.03, seed=2)
    stream = make_dataset("SYNTHIE", scale=0.03, seed=2, stream=True)
    assert_bitwise_equal(stream.labels(), eager.y, "label order")
    shard_ys = [s.y for s in stream.iter_shards(3)]
    assert_bitwise_equal(np.concatenate(shard_ys), eager.y, "sharded labels")


# ---------------------------------------------------------------------------
# Arbitrary graph shapes: single-graph shards + dummy-padded graphs.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _ListGenerator:
    """Deterministic generator replaying a fixed tuple of graphs.

    With ``num_classes == len(graphs)``, graph ``i`` is class ``i`` and
    the registry's ``sample_graph`` maps index -> class -> this tuple.
    """

    graphs: tuple

    def sample(self, cls: int, rng) -> Graph:
        return self.graphs[cls]


def stream_of(graphs) -> StreamingGraphDataset:
    spec = DatasetSpec(
        name="hypo",
        num_classes=len(graphs),
        has_vertex_labels=True,
        generator=_ListGenerator(tuple(graphs)),
    )
    return StreamingGraphDataset(
        name="hypo", spec=spec, seeds=np.arange(len(graphs), dtype=np.int64)
    )


@settings(max_examples=20, deadline=None)
@given(graphs=graph_batches(min_graphs=1, max_graphs=5), shard_size=st.integers(1, 6))
def test_sharded_encode_equals_full_encode(graphs, shard_size):
    # Pad-heavy batches: append an isolated vertex so at least one graph
    # sits far below the alignment width w = max |V|.
    graphs = list(graphs) + [Graph(1, [], [0])]
    model = fresh_model()
    counts = cached_vertex_counts(model.extractor, graphs)
    totals: dict = {}
    for vertex_counts in counts:
        for counter in vertex_counts:
            for key, value in counter.items():
                totals[key] = totals.get(key, 0) + value
    vocab = FeatureVocabulary(totals.keys())
    encoder = DeepMapEncoder(r=model.r, ordering=model.ordering).fit_width(
        [max(g.n for g in graphs)]
    )
    table = vocab.vectorize_rows(chain.from_iterable(counts))
    full = dense_input(encoder.encode(graphs, table))

    cache, spool = make_spool_cache()
    with spool:
        store = EncodedShardStore(
            stream_of(graphs), model.extractor, vocab, encoder,
            shard_size, cache=cache,
        )
        store.warm()
        assert store.shape == full.shape
        idx = np.arange(len(graphs) - 1, -1, -1, dtype=np.int64)  # reversed
        assert_bitwise_equal(store.take_rows(idx), full[idx], "gathered rows")
        assert_bitwise_equal(
            store.take_rows(np.arange(len(graphs), dtype=np.int64)),
            full,
            "in-order rows",
        )


def test_streamed_cache_keys_match_materialized_shard_keys():
    # The content-addressed key scheme is unchanged: the key the store
    # records for a shard is exactly the key the materialized encoder
    # computes for the same slice of graphs.
    eager = make_dataset("MUTAG", scale=0.02, seed=0)
    stream = make_dataset("MUTAG", scale=0.02, seed=0, stream=True)
    model = fresh_model()
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
    shard_size = 4
    cache, spool = make_spool_cache()
    with spool:
        store = EncodedShardStore(
            stream, model.extractor, vocab, encoder, shard_size, cache=cache
        )
        store.warm()
        for s in range(store.num_shards):
            start = s * shard_size
            stop = min(start + shard_size, len(eager.graphs))
            assert store._keys[s] == encoder.encode_key(
                eager.graphs[start:stop],
                vocab.vectorize_rows(chain.from_iterable(counts[start:stop])),
            )
