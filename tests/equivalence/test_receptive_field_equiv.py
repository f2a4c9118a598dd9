"""Vectorized receptive-field assembly vs the per-vertex BFS oracle."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alignment import centrality_scores
from repro.core.receptive_field import (
    DUMMY,
    all_receptive_fields,
    receptive_field,
)
from repro.graph import Graph

from tests.conftest import random_graphs
from tests.oracles.core import _reference_all_receptive_fields
from tests.equivalence.conftest import (
    assert_bitwise_equal,
    disconnected_graphs,
    score_arrays,
    shuffled_edge_graphs,
)


class TestAllReceptiveFields:
    @settings(max_examples=60)
    @given(random_graphs(max_nodes=10), st.integers(1, 12))
    def test_matches_reference_eigenvector(self, g, r):
        scores = centrality_scores(g, "eigenvector")
        assert_bitwise_equal(
            all_receptive_fields(g, r, scores),
            _reference_all_receptive_fields(g, r, scores),
        )

    @settings(max_examples=40)
    @given(random_graphs(max_nodes=10), st.integers(1, 8))
    def test_matches_reference_degree(self, g, r):
        scores = centrality_scores(g, "degree")
        assert_bitwise_equal(
            all_receptive_fields(g, r, scores),
            _reference_all_receptive_fields(g, r, scores),
        )

    @settings(max_examples=60)
    @given(random_graphs(max_nodes=9), st.integers(1, 10), st.data())
    def test_matches_reference_tied_scores(self, g, r, data):
        """Small-integer scores force heavy ties; tie-breaking must agree."""
        scores = data.draw(score_arrays(g.n))
        assert_bitwise_equal(
            all_receptive_fields(g, r, scores),
            _reference_all_receptive_fields(g, r, scores),
        )

    @given(disconnected_graphs(), st.integers(1, 10))
    def test_disconnected_matches_reference(self, g, r):
        scores = centrality_scores(g, "degree")
        got = all_receptive_fields(g, r, scores)
        assert_bitwise_equal(got, _reference_all_receptive_fields(g, r, scores))

    @given(shuffled_edge_graphs(), st.integers(1, 6))
    def test_edge_order_irrelevant(self, g, r):
        scores = centrality_scores(g, "degree")
        assert_bitwise_equal(
            all_receptive_fields(g, r, scores),
            _reference_all_receptive_fields(g, r, scores),
        )

    def test_empty_graph_gives_empty_table(self):
        assert all_receptive_fields(Graph(0, []), 3, np.empty(0)).shape == (0, 3)


class TestFieldProperties:
    @given(random_graphs(max_nodes=8))
    def test_r1_field_is_the_center(self, g):
        scores = centrality_scores(g, "degree")
        fields = all_receptive_fields(g, 1, scores)
        assert fields.tolist() == [[v] for v in range(g.n)]

    @given(random_graphs(max_nodes=8), st.integers(1, 12))
    def test_center_always_in_field(self, g, r):
        scores = centrality_scores(g, "degree")
        fields = all_receptive_fields(g, r, scores)
        for v in range(g.n):
            assert v in fields[v]

    @given(random_graphs(max_nodes=8))
    def test_oversized_r_pads_with_dummy(self, g):
        r = g.n + 3
        fields = all_receptive_fields(g, r, centrality_scores(g, "degree"))
        assert (fields[:, -3:] == DUMMY).all() or g.n == 0

    @given(random_graphs(max_nodes=8), st.integers(1, 6))
    def test_single_vertex_api_agrees_with_table(self, g, r):
        scores = centrality_scores(g, "degree")
        fields = all_receptive_fields(g, r, scores)
        for v in range(g.n):
            assert_bitwise_equal(receptive_field(g, v, r, scores), fields[v])
