"""Tests for walk-based vertex features."""

import numpy as np
import pytest

from repro.features import (
    LabeledWalkVertexFeatures,
    ReturnProbabilityVertexFeatures,
    extract_vertex_feature_matrices,
    graph_feature_maps,
)
from repro.graph import Graph, complete_graph, cycle_graph, path_graph, star_graph

from tests.oracles.features import extract_counters, graph_matrices


class TestLabeledWalks:
    def test_single_edge_counts(self):
        g = Graph(2, [(0, 1)], [0, 1])
        counts = extract_counters(LabeledWalkVertexFeatures(length=2), [g])[0]
        # From vertex 0: walks (0,1) and (0,1,0).
        assert counts[0][("walk", (0, 1))] == 1
        assert counts[0][("walk", (0, 1, 0))] == 1
        assert sum(counts[0].values()) == 2

    def test_walk_counts_match_adjacency_powers(self):
        """Total walks of length k from v == row sum of A^k."""
        g = complete_graph(4)
        length = 3
        counts = extract_counters(LabeledWalkVertexFeatures(length=length), [g])[0]
        a = g.adjacency_matrix()
        expected = sum(np.linalg.matrix_power(a, k).sum(axis=1) for k in (1, 2, 3))
        totals = [sum(c.values()) for c in counts]
        assert np.allclose(totals, expected)

    def test_revisits_allowed(self):
        g = path_graph(2)
        counts = extract_counters(LabeledWalkVertexFeatures(length=4), [g])[0]
        # Walks bounce on the single edge: one walk per length.
        assert sum(counts[0].values()) == 4

    def test_label_sequences_distinguish(self):
        g1 = path_graph(3).with_labels([0, 1, 0])
        g2 = path_graph(3).with_labels([0, 0, 1])
        phi, _ = graph_feature_maps([g1, g2], LabeledWalkVertexFeatures(length=2))
        assert not np.allclose(phi[0], phi[1])

    def test_isomorphism_invariance(self):
        g = cycle_graph(5).with_labels([0, 1, 2, 1, 0])
        h = g.relabel_vertices([4, 0, 1, 2, 3])
        phi, _ = graph_feature_maps([g, h], LabeledWalkVertexFeatures(length=3))
        assert np.allclose(phi[0], phi[1])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            LabeledWalkVertexFeatures(length=0)

    def test_plugs_into_deepmap(self, small_dataset):
        from repro.core import DeepMapClassifier

        graphs, y = small_dataset
        model = DeepMapClassifier(
            LabeledWalkVertexFeatures(length=2), r=3, epochs=3, seed=0
        )
        model.fit(graphs, y)
        assert model.predict(graphs).shape == (len(graphs),)


class TestReturnProbabilityFeatures:
    def test_one_count_per_step(self):
        g = cycle_graph(6)
        counts = extract_counters(ReturnProbabilityVertexFeatures(steps=5), [g])[0]
        assert all(sum(c.values()) == 5 for c in counts)

    def test_symmetric_vertices_identical(self):
        g = cycle_graph(8)
        counts = extract_counters(ReturnProbabilityVertexFeatures(steps=6), [g])[0]
        assert all(c == counts[0] for c in counts)

    def test_role_separation_on_star(self):
        g = star_graph(6)
        counts = extract_counters(ReturnProbabilityVertexFeatures(steps=4), [g])[0]
        assert counts[0] != counts[1]  # hub vs leaf
        assert counts[1] == counts[2]  # leaf vs leaf

    def test_bins_bounded(self):
        g = path_graph(2)  # p returns with probability 1 at even steps
        counts = extract_counters(ReturnProbabilityVertexFeatures(steps=2, bins=4), [g])[0]
        for c in counts:
            for (_, _, level) in c:
                assert 0 <= level < 4

    def test_matrix_shapes(self):
        graphs = [cycle_graph(4), star_graph(5)]
        table, vocab = extract_vertex_feature_matrices(
            graphs, ReturnProbabilityVertexFeatures(steps=3)
        )
        matrices = graph_matrices(table, graphs)
        assert matrices[0].shape == (4, vocab.size)
        assert matrices[1].shape == (5, vocab.size)
