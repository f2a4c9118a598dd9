"""Property-based tests for the Algorithm 1 encoder."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeepMapEncoder
from repro.features import WLVertexFeatures, extract_vertex_feature_matrices

from tests.conftest import random_graphs
from tests.oracles.core import dense_input
from tests.oracles.features import graph_matrices


def _encode(graphs, r):
    table, _ = extract_vertex_feature_matrices(graphs, WLVertexFeatures(h=1))
    encoder = DeepMapEncoder(r=r).fit(graphs)
    return encoder.encode(graphs, table), graph_matrices(table, graphs)



@given(
    graphs=st.lists(random_graphs(min_nodes=1, max_nodes=7), min_size=1, max_size=4),
    r=st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_tensor_shape_and_finiteness(graphs, r):
    enc, _ = _encode(graphs, r)
    w = max(g.n for g in graphs)
    assert dense_input(enc).shape == (len(graphs), w * r, enc.m)
    assert np.all(np.isfinite(dense_input(enc)))


@given(
    graphs=st.lists(random_graphs(min_nodes=1, max_nodes=7), min_size=1, max_size=4),
    r=st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_mask_matches_graph_sizes(graphs, r):
    enc, _ = _encode(graphs, r)
    for gi, g in enumerate(graphs):
        assert enc.vertex_mask[gi].sum() == g.n


@given(
    graphs=st.lists(random_graphs(min_nodes=1, max_nodes=6), min_size=1, max_size=3),
    r=st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_feature_mass_conserved(graphs, r):
    """Every tensor row is a copy of some vertex's feature row (or zero),
    so each graph's tensor total is bounded by r times its feature mass
    and every vertex appears at least once (in its own slot)."""
    enc, matrices = _encode(graphs, r)
    for gi, (g, mat) in enumerate(zip(graphs, matrices)):
        tensor_sum = dense_input(enc)[gi].sum()
        mass = mat.sum()
        assert tensor_sum <= r * mass + 1e-9
        if r == 1:
            # With r=1 every slot holds exactly its own vertex.
            assert np.isclose(tensor_sum, mass)


@given(
    graphs=st.lists(random_graphs(min_nodes=2, max_nodes=6), min_size=2, max_size=3),
)
@settings(max_examples=15, deadline=None)
def test_encoding_independent_of_companions(graphs):
    """A graph's slice depends only on itself (given fixed w and vocab)."""
    extractor = WLVertexFeatures(h=1)
    table, vocab = extract_vertex_feature_matrices(graphs, extractor)
    w = max(g.n for g in graphs)
    encoder = DeepMapEncoder(r=2, w=w)
    full = encoder.encode(graphs, table)
    solo = encoder.encode(graphs[:1], vocab.vectorize_rows(extractor.extract(graphs[:1])))
    assert np.allclose(dense_input(full)[0], dense_input(solo)[0])
