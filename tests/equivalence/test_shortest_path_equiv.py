"""Vectorized APSP + shortest-path feature binning vs the reference oracles."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import ShortestPathVertexFeatures
from repro.graph import Graph, apsp_floyd_warshall
from repro.graph.shortest_paths import apsp_bfs

from tests.conftest import random_graphs
from tests.oracles.features import _reference_sp_vertex_counts, extract_counters
from tests.oracles.graph import _reference_apsp_bfs
from tests.equivalence.conftest import (
    assert_bitwise_equal,
    disconnected_graphs,
    shuffled_edge_graphs,
)


class TestApsp:
    @given(random_graphs(max_nodes=12))
    def test_matches_reference(self, g):
        assert_bitwise_equal(apsp_bfs(g), _reference_apsp_bfs(g))

    @given(disconnected_graphs())
    def test_matches_reference_disconnected(self, g):
        assert_bitwise_equal(apsp_bfs(g), _reference_apsp_bfs(g))

    @given(random_graphs(max_nodes=10))
    def test_cross_checks_floyd_warshall(self, g):
        assert_bitwise_equal(apsp_bfs(g), apsp_floyd_warshall(g))

    def test_empty_graph(self):
        assert apsp_bfs(Graph(0, [])).shape == (0, 0)


class TestSpFeatures:
    @given(random_graphs(max_nodes=10))
    def test_unbounded_matches_reference(self, g):
        got = extract_counters(ShortestPathVertexFeatures(), [g])[0]
        assert got == _reference_sp_vertex_counts(g, None)

    @settings(max_examples=50)
    @given(random_graphs(max_nodes=10), st.integers(1, 4))
    def test_max_distance_matches_reference(self, g, md):
        got = extract_counters(ShortestPathVertexFeatures(max_distance=md), [g])[0]
        assert got == _reference_sp_vertex_counts(g, md)

    @given(disconnected_graphs())
    def test_disconnected_matches_reference(self, g):
        got = extract_counters(ShortestPathVertexFeatures(), [g])[0]
        assert got == _reference_sp_vertex_counts(g, None)

    @given(shuffled_edge_graphs())
    def test_edge_order_irrelevant(self, g):
        got = extract_counters(ShortestPathVertexFeatures(), [g])[0]
        assert got == _reference_sp_vertex_counts(g, None)

    def test_edgeless_graph_gives_empty_counters(self):
        g = Graph(4, [], [0, 1, 2, 0])
        assert extract_counters(ShortestPathVertexFeatures(), [g])[0] == [Counter()] * 4

    def test_single_vertex(self):
        g = Graph(1, [], [5])
        assert extract_counters(ShortestPathVertexFeatures(), [g])[0] == [Counter()]

    def test_key_shape_and_counts_on_path(self):
        # 0-1-2 with labels 0,1,0: vertex 0 sees (l0, l1, d1) and (l0, l0, d2).
        g = Graph(3, [(0, 1), (1, 2)], [0, 1, 0])
        counts = extract_counters(ShortestPathVertexFeatures(), [g])[0]
        assert counts[0] == Counter({("sp", 0, 1, 1): 1, ("sp", 0, 0, 2): 1})
        assert counts[1] == Counter({("sp", 1, 0, 1): 2})
