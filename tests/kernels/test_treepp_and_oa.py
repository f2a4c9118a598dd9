"""Tests for the Tree++ path-pattern kernel and the WL optimal
assignment kernel (paper references [8] and [21])."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import PathPatternVertexFeatures, extract_vertex_feature_matrices
from repro.graph import Graph, complete_graph, cycle_graph, path_graph, star_graph
from repro.kernels import (
    TreePlusPlusKernel,
    WLOptimalAssignmentKernel,
    validate_gram,
)

from tests.conftest import random_graphs
from tests.oracles.features import extract_counters


class TestPathPatternFeatures:
    def test_counts_on_path(self):
        g = Graph(3, [(0, 1), (1, 2)], [0, 1, 0])
        counts = extract_counters(PathPatternVertexFeatures(depth=2), [g])[0]
        root0 = counts[0]
        # root 0: paths (0), (0,1), (0,1,0)
        assert root0[("path", (0,))] == 1
        assert root0[("path", (0, 1))] == 1
        assert root0[("path", (0, 1, 0))] == 1
        assert sum(root0.values()) == 3

    def test_depth_truncates(self):
        g = path_graph(6)
        shallow = extract_counters(PathPatternVertexFeatures(depth=1), [g])[0]
        deep = extract_counters(PathPatternVertexFeatures(depth=4), [g])[0]
        assert sum(shallow[0].values()) < sum(deep[0].values())

    def test_super_paths_change_alphabet(self):
        g = cycle_graph(6)
        raw = extract_counters(PathPatternVertexFeatures(depth=2, super_path_h=0), [g])[0]
        sup = extract_counters(PathPatternVertexFeatures(depth=2, super_path_h=2), [g])[0]
        assert set(raw[0]) != set(sup[0])

    def test_bfs_tree_visits_each_vertex_once(self):
        # In a cycle, the BFS tree from any root reaches n vertices, so
        # n path patterns (including the root's own).
        g = cycle_graph(5)
        counts = extract_counters(PathPatternVertexFeatures(depth=4), [g])[0]
        assert sum(counts[0].values()) == 5

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            PathPatternVertexFeatures(depth=0)
        with pytest.raises(ValueError):
            PathPatternVertexFeatures(depth=1, super_path_h=-1)

    def test_plugs_into_deepmap(self, small_dataset):
        from repro.core import DeepMapClassifier

        graphs, y = small_dataset
        model = DeepMapClassifier(
            PathPatternVertexFeatures(depth=2), r=3, epochs=3, seed=0
        )
        model.fit(graphs, y)
        assert model.predict(graphs).shape == (len(graphs),)


class TestTreePlusPlusKernel:
    def test_psd(self):
        graphs = [cycle_graph(5), star_graph(5), path_graph(4)]
        validate_gram(TreePlusPlusKernel(depth=2, max_order=1).gram(graphs))

    def test_isomorphism_invariance(self):
        g = star_graph(6).with_labels([2, 0, 0, 1, 1, 0])
        h = g.relabel_vertices([3, 1, 5, 0, 4, 2])
        gram = TreePlusPlusKernel(depth=2, max_order=1).gram([g, h])
        assert np.isclose(gram[0, 1], gram[0, 0])

    def test_higher_order_adds_similarity_mass(self):
        graphs = [cycle_graph(5), cycle_graph(6)]
        k0 = TreePlusPlusKernel(depth=2, max_order=0).gram(graphs)
        k2 = TreePlusPlusKernel(depth=2, max_order=2).gram(graphs)
        assert np.all(k2 >= k0)

    def test_distinguishes_structures(self):
        from repro.kernels import normalize_gram

        gram = normalize_gram(
            TreePlusPlusKernel(depth=2, max_order=1).gram(
                [path_graph(6), star_graph(6), path_graph(6)]
            )
        )
        assert gram[0, 2] > gram[0, 1]


class TestWLOptimalAssignment:
    def test_psd(self):
        graphs = [cycle_graph(5), star_graph(5), path_graph(4), complete_graph(4)]
        validate_gram(WLOptimalAssignmentKernel(h=2).gram(graphs))

    def test_self_value_is_vertices_times_iterations(self):
        g = cycle_graph(5)
        gram = WLOptimalAssignmentKernel(h=3).gram([g])
        assert gram[0, 0] == 5 * 4  # n vertices matched at h+1 levels

    def test_bounded_by_smaller_graph(self):
        g1 = cycle_graph(4)
        g2 = cycle_graph(9)
        gram = WLOptimalAssignmentKernel(h=2).gram([g1, g2])
        assert gram[0, 1] <= 4 * 3  # at most min(n1, n2) per level

    def test_isomorphism_invariance(self):
        g = path_graph(6).with_labels([0, 1, 2, 2, 1, 0])
        h = g.relabel_vertices([5, 4, 3, 2, 1, 0])
        gram = WLOptimalAssignmentKernel(h=2).gram([g, h])
        assert gram[0, 1] == gram[0, 0]

    @given(st.lists(random_graphs(min_nodes=2, max_nodes=6), min_size=2, max_size=4))
    @settings(max_examples=10, deadline=None)
    def test_psd_random(self, graphs):
        validate_gram(WLOptimalAssignmentKernel(h=1).gram(graphs))

    def test_rejects_negative_h(self):
        with pytest.raises(ValueError):
            WLOptimalAssignmentKernel(h=-1)
