"""The sparse vertex feature table vs the implementations it replaced.

Every extractor returns one :class:`~repro.features.vocabulary.VertexCounts`
and ``FeatureVocabulary.vectorize_rows`` maps it to one CSR
:class:`~repro.features.vocabulary.FeatureTable` per dataset.  That table
must equal, array for array, what the ``Counter``-producing extractors
and the dict-walking vocabulary in ``tests/oracles/features.py`` built —
column order, ``max_features`` selection, in-row entry order and all —
and ``FeatureTable.dense`` / ``FeatureTable.segment_sums`` must
reproduce, bit for bit, the dense ``(n_v, m)`` rows and the Equation 7
column sums of the dense oracles.  Every property runs over every
extractor and over zero-vertex, edgeless, disconnected and tied graphs.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import (
    FeatureVocabulary,
    GraphletVertexFeatures,
    LabeledWalkVertexFeatures,
    OneHotLabelFeatures,
    PathPatternVertexFeatures,
    ReturnProbabilityVertexFeatures,
    ShortestPathVertexFeatures,
    VertexCounts,
    WLVertexFeatures,
    extract_vertex_feature_matrices,
)
from repro.graph import Graph

from tests.equivalence.conftest import assert_bitwise_equal, graph_batches
from tests.oracles.features import (
    _reference_feature_matrices,
    _reference_sum_vertex_maps,
    _reference_table,
    _reference_vectorize_rows,
    _reference_vertex_counts,
    _reference_vocabulary,
)

EXTRACTORS = [
    GraphletVertexFeatures(k=3, samples=4, seed=0),
    ShortestPathVertexFeatures(),
    WLVertexFeatures(h=2),
    WLVertexFeatures(h=10),  # iteration 10 sorts before 2 by repr
    OneHotLabelFeatures(),
    PathPatternVertexFeatures(depth=2),
    LabeledWalkVertexFeatures(length=2),
    ReturnProbabilityVertexFeatures(steps=4),
]

_SPECIAL_GRAPHS = [
    Graph(0, [], []),  # zero vertices
    Graph(3, [], [1, 1, 1]),  # edgeless, every vertex tied
    Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 0, 0, 0]),  # C4 ties
    Graph(6, [(0, 1), (1, 2), (3, 4)], [0, 0, 1, 2, 2, 0]),  # disconnected
]


@settings(max_examples=15, deadline=None)
@given(
    graph_batches(),
    st.lists(st.sampled_from(_SPECIAL_GRAPHS), max_size=3),
    st.sampled_from(EXTRACTORS),
    st.randoms(use_true_random=False),
)
def test_table_equals_dense_oracle(graphs, special, extractor, rnd):
    graphs = graphs + special
    rnd.shuffle(graphs)
    table, vocab = extract_vertex_feature_matrices(graphs, extractor)
    matrices, oracle_vocab = _reference_feature_matrices(graphs, extractor)
    assert vocab.keys() == oracle_vocab.keys()
    n_rows = sum(g.n for g in graphs)
    assert len(table) == n_rows and table.m == vocab.size

    everything = table.dense(np.arange(n_rows))
    want = np.concatenate(matrices, axis=0)
    assert_bitwise_equal(everything, want, "dense(all rows)")
    perm = np.array(rnd.sample(range(n_rows), n_rows), dtype=np.int64)
    assert_bitwise_equal(table.dense(perm), everything[perm], "dense(perm)")

    phi = table.segment_sums([g.n for g in graphs])
    assert_bitwise_equal(phi, _reference_sum_vertex_maps(matrices, vocab.size), "phi")


@settings(max_examples=25, deadline=None)
@given(
    graph_batches(),
    graph_batches(),
    st.lists(st.sampled_from(_SPECIAL_GRAPHS), max_size=3),
    st.sampled_from(EXTRACTORS),
    st.sampled_from([None, 1, 3, 20]),
    st.randoms(use_true_random=False),
)
def test_vertex_counts_equal_the_counter_oracle(
    fit_graphs, held_out, special, extractor, max_features, rnd
):
    """Fit on one batch, vectorize it and a held-out batch (unseen keys
    dropped): arrays, dtypes and key order equal the ``Counter`` path."""
    fit_graphs = fit_graphs + special
    rnd.shuffle(fit_graphs)
    vocab = FeatureVocabulary.from_counts([extractor.extract(fit_graphs)], max_features)
    oracle_keys = _reference_vocabulary(
        _reference_vertex_counts(extractor, fit_graphs), max_features
    )
    assert vocab.keys() == [repr(k) for k in oracle_keys]
    for graphs in (fit_graphs, held_out + special):
        got = vocab.vectorize_rows(extractor.extract(graphs))
        want = _reference_table(
            oracle_keys, chain.from_iterable(_reference_vertex_counts(extractor, graphs))
        )
        assert got.m == want.m
        for name in ("indptr", "indices", "values"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(
            st.dictionaries(
                st.integers(0, 6),
                st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
                max_size=4,
            ),
            max_size=5,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_non_integer_sums_add_in_dense_column_order(blocks):
    """Float values make the summation order visible: the segment sums
    must add each block's rows in the order a dense column sum does."""
    vocab = FeatureVocabulary(range(6))  # key 6 is unknown: dropped
    table = vocab.vectorize_rows(VertexCounts.from_dicts(chain.from_iterable(blocks)))
    matrices = [_reference_vectorize_rows(vocab, rows) for rows in blocks]
    assert_bitwise_equal(
        table.segment_sums([len(rows) for rows in blocks]),
        _reference_sum_vertex_maps(matrices, vocab.size),
        "segment_sums",
    )
