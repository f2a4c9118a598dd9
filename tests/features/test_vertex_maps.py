"""Tests for vertex feature maps — including the Equation 7 property that
graph feature maps equal the sum of vertex feature maps."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.features import (
    GraphletVertexFeatures,
    ShortestPathVertexFeatures,
    WLVertexFeatures,
    extract_vertex_feature_matrices,
    graph_feature_maps,
    wl_stable_colors,
)
from repro.graph import Graph, complete_graph, cycle_graph, path_graph, star_graph

from tests.conftest import random_graphs
from tests.oracles.features import (
    _reference_wl_joint_refinement,
    extract_counters,
    graph_matrices,
)


class TestShortestPathFeatures:
    def test_path_counts(self):
        g = Graph(3, [(0, 1), (1, 2)], [0, 1, 0])
        counts = extract_counters(ShortestPathVertexFeatures(), [g])[0]
        # Vertex 0 (label 0): sees label 1 at d=1, label 0 at d=2.
        assert counts[0][("sp", 0, 1, 1)] == 1
        assert counts[0][("sp", 0, 0, 2)] == 1

    def test_disconnected_pairs_skipped(self):
        g = Graph(3, [(0, 1)], [0, 0, 0])
        counts = extract_counters(ShortestPathVertexFeatures(), [g])[0]
        assert sum(counts[0].values()) == 1  # only vertex 1 reachable

    def test_max_distance_truncates(self):
        g = path_graph(5)
        full = extract_counters(ShortestPathVertexFeatures(), [g])[0]
        trunc = extract_counters(ShortestPathVertexFeatures(max_distance=1), [g])[0]
        assert sum(trunc[0].values()) < sum(full[0].values())
        assert sum(trunc[0].values()) == 1  # one neighbor at the path end

    def test_complete_graph_all_distance_one(self):
        g = complete_graph(4)
        counts = extract_counters(ShortestPathVertexFeatures(), [g])[0]
        for c in counts:
            assert set(k[3] for k in c) == {1}

    def test_rejects_bad_max_distance(self):
        with pytest.raises(ValueError):
            ShortestPathVertexFeatures(max_distance=0)


class TestWLFeatures:
    def test_iteration_zero_is_label(self):
        g = Graph(2, [(0, 1)], [3, 4])
        counts = extract_counters(WLVertexFeatures(h=0), [g])[0]
        assert counts[0][("wl", 0, 3)] == 1
        assert counts[1][("wl", 0, 4)] == 1

    def test_one_count_per_iteration(self):
        g = cycle_graph(5)
        counts = extract_counters(WLVertexFeatures(h=3), [g])[0]
        assert all(sum(c.values()) == 4 for c in counts)

    def test_cross_graph_alignment(self):
        """Identical subtree patterns in different graphs share keys."""
        g1 = path_graph(3)
        g2 = path_graph(3)
        c1 = extract_counters(WLVertexFeatures(h=2), [g1])[0]
        c2 = extract_counters(WLVertexFeatures(h=2), [g2])[0]
        assert c1[1] == c2[1]  # middle vertices identical

    def test_stable_colors_deterministic(self):
        g = star_graph(5)
        assert wl_stable_colors(g, 3) == wl_stable_colors(g, 3)

    def test_stable_colors_distinguish_center(self):
        g = star_graph(4)
        colors = wl_stable_colors(g, 1)[1]
        assert colors[0] != colors[1]
        assert colors[1] == colors[2] == colors[3]

    def test_rejects_negative_h(self):
        with pytest.raises(ValueError):
            WLVertexFeatures(h=-1)


class TestGraphletFeatures:
    def test_sample_budget(self):
        g = cycle_graph(6)
        counts = extract_counters(GraphletVertexFeatures(k=3, samples=7, seed=0), [g])[0]
        assert all(sum(c.values()) == 7 for c in counts)

    def test_deterministic(self):
        g = cycle_graph(6)
        e = GraphletVertexFeatures(k=4, samples=5, seed=9)
        assert extract_counters(e, [g]) == extract_counters(e, [g])

    def test_order_independent_per_graph(self):
        """Each graph's features do not depend on dataset ordering."""
        g1, g2 = cycle_graph(6), star_graph(6)
        e = GraphletVertexFeatures(k=3, samples=6, seed=1)
        both = extract_counters(e, [g1, g2])
        flipped = extract_counters(e, [g2, g1])
        assert both[0] == flipped[1]
        assert both[1] == flipped[0]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            GraphletVertexFeatures(k=9)


class TestOneHotFeatures:
    def test_single_feature_per_vertex(self):
        from repro.features import OneHotLabelFeatures

        g = Graph(3, [(0, 1)], [5, 7, 5])
        counts = extract_counters(OneHotLabelFeatures(), [g])[0]
        assert all(sum(c.values()) == 1 for c in counts)
        assert counts[0] == counts[2]
        assert counts[0] != counts[1]

    def test_matrix_is_one_hot(self):
        from repro.features import OneHotLabelFeatures

        g = Graph(4, [], [0, 1, 2, 1])
        table, vocab = extract_vertex_feature_matrices([g], OneHotLabelFeatures())
        matrices = graph_matrices(table, [g])
        assert vocab.size == 3
        assert np.allclose(matrices[0].sum(axis=1), 1.0)


class TestEquation7:
    """phi(G) == sum_v phi(v): the pooling identity of the paper."""

    @pytest.mark.parametrize(
        "extractor",
        [
            ShortestPathVertexFeatures(),
            WLVertexFeatures(h=2),
            GraphletVertexFeatures(k=3, samples=5, seed=0),
        ],
        ids=["sp", "wl", "gk"],
    )
    def test_sum_identity(self, extractor):
        graphs = [cycle_graph(5), star_graph(5), path_graph(4)]
        table, vocab = extract_vertex_feature_matrices(graphs, extractor)
        matrices = graph_matrices(table, graphs)
        phi, vocab2 = graph_feature_maps(graphs, extractor)
        assert phi.shape == (3, vocab.size)
        for i, mat in enumerate(matrices):
            assert np.allclose(phi[i], mat.sum(axis=0))

    @given(random_graphs(min_nodes=2, max_nodes=7))
    @settings(max_examples=20, deadline=None)
    def test_sum_identity_wl_random(self, g):
        table, _ = extract_vertex_feature_matrices([g], WLVertexFeatures(h=2))
        matrices = graph_matrices(table, [g])
        phi, _ = graph_feature_maps([g], WLVertexFeatures(h=2))
        assert np.allclose(phi[0], matrices[0].sum(axis=0))


class TestJointRefinement:
    """The classic shared-dictionary WL (an oracle in
    ``tests/oracles/features.py``): its color partitions must agree with
    the stable-hash colors used by the extractors."""

    def test_shapes(self):
        graphs = [cycle_graph(4), star_graph(5)]
        colorings = _reference_wl_joint_refinement(graphs, h=2)
        assert len(colorings) == 3  # iterations 0..2
        assert colorings[0][0].shape == (4,)
        assert colorings[2][1].shape == (5,)

    def test_cross_graph_colors_shared(self):
        g1 = path_graph(3)
        g2 = path_graph(3)
        colorings = _reference_wl_joint_refinement([g1, g2], h=2)
        for it in range(3):
            assert np.array_equal(colorings[it][0], colorings[it][1])

    def test_partition_agrees_with_stable_hashes(self):
        g = star_graph(6)
        joint = _reference_wl_joint_refinement([g], h=2)
        stable = wl_stable_colors(g, 2)
        for it in range(3):
            a, b = joint[it][0], np.asarray(stable[it])
            # same partition: equal colors in one <=> equal in the other
            for u in range(g.n):
                for v in range(g.n):
                    assert (a[u] == a[v]) == (b[u] == b[v])


class TestMatrices:
    def test_shared_dimension(self):
        graphs = [cycle_graph(4), star_graph(6)]
        table, vocab = extract_vertex_feature_matrices(
            graphs, WLVertexFeatures(h=1)
        )
        matrices = graph_matrices(table, graphs)
        assert matrices[0].shape == (4, vocab.size)
        assert matrices[1].shape == (6, vocab.size)

    def test_isomorphic_graphs_same_graph_map(self):
        g = cycle_graph(6).with_labels([0, 1, 0, 1, 0, 1])
        h = g.relabel_vertices([3, 4, 5, 0, 1, 2])
        phi, _ = graph_feature_maps([g, h], WLVertexFeatures(h=3))
        assert np.allclose(phi[0], phi[1])
