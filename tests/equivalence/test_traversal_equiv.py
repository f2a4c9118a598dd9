"""Vectorized BFS vs the queue-based reference oracles — bitwise."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, path_graph, star_graph
from repro.graph.traversal import (
    bfs_distances,
    bfs_distances_batch,
    bfs_layers,
    bfs_order,
)

from tests.conftest import random_graphs
from tests.oracles.graph import _reference_bfs_distances, _reference_bfs_layers
from tests.equivalence.conftest import (
    assert_bitwise_equal,
    disconnected_graphs,
    shuffled_edge_graphs,
)


class TestSingleSource:
    @given(random_graphs(max_nodes=12))
    def test_distances_match_reference_all_sources(self, g):
        for s in range(g.n):
            assert_bitwise_equal(
                bfs_distances(g, s), _reference_bfs_distances(g, s), f"src={s}"
            )

    @given(random_graphs(max_nodes=12))
    def test_layers_match_reference_all_sources(self, g):
        for s in range(g.n):
            assert list(bfs_layers(g, s)) == list(_reference_bfs_layers(g, s))

    @given(disconnected_graphs())
    def test_disconnected_distances_match_reference(self, g):
        for s in range(g.n):
            got = bfs_distances(g, s)
            assert_bitwise_equal(got, _reference_bfs_distances(g, s))
            assert (got == -1).any()  # another component is unreachable

    @given(shuffled_edge_graphs())
    def test_edge_order_and_orientation_irrelevant(self, g):
        for s in range(g.n):
            assert_bitwise_equal(bfs_distances(g, s), _reference_bfs_distances(g, s))

    @given(random_graphs(max_nodes=10))
    def test_bfs_order_visits_component_once(self, g):
        order = bfs_order(g, 0)
        assert order[0] == 0
        assert len(order) == len(set(order))
        assert set(order) == {v for v in range(g.n) if bfs_distances(g, 0)[v] >= 0}

    def test_out_of_range_source_raises(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            bfs_distances(g, 3)
        with pytest.raises(ValueError):
            list(bfs_layers(g, -1))


class TestBatch:
    @given(random_graphs(max_nodes=12))
    def test_batch_matches_reference_stack(self, g):
        expected = np.stack([_reference_bfs_distances(g, s) for s in range(g.n)])
        assert_bitwise_equal(bfs_distances_batch(g), expected)

    @given(disconnected_graphs())
    def test_batch_disconnected(self, g):
        expected = np.stack([_reference_bfs_distances(g, s) for s in range(g.n)])
        assert_bitwise_equal(bfs_distances_batch(g), expected)

    @given(random_graphs(min_nodes=2, max_nodes=10), st.data())
    def test_batch_source_subset(self, g, data):
        sources = data.draw(
            st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True)
        )
        expected = np.stack([_reference_bfs_distances(g, s) for s in sources])
        assert_bitwise_equal(bfs_distances_batch(g, np.array(sources)), expected)

    @settings(max_examples=25)
    @given(random_graphs(max_nodes=10))
    def test_sparse_fallback_matches_dense(self, g):
        import repro.graph.traversal as tr

        dense = bfs_distances_batch(g)
        saved = tr._DENSE_BATCH_MAX_N
        try:
            tr._DENSE_BATCH_MAX_N = 0  # force the per-source CSR fallback
            assert_bitwise_equal(tr.bfs_distances_batch(g), dense)
        finally:
            tr._DENSE_BATCH_MAX_N = saved

    def test_empty_graph(self):
        g = Graph(0, [])
        assert bfs_distances_batch(g).shape == (0, 0)

    def test_out_of_range_sources_raise(self):
        g = star_graph(4)
        with pytest.raises(ValueError):
            bfs_distances_batch(g, np.array([0, 99]))

    def test_known_star_distances(self):
        g = star_graph(5)  # center 0, leaves 1..4
        d = bfs_distances_batch(g)
        assert d[0].tolist() == [0, 1, 1, 1, 1]
        assert d[1].tolist() == [1, 0, 2, 2, 2]
