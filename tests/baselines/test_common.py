"""Tests for the shared baseline machinery (padding, featurisation)."""

import numpy as np
import pytest

from repro.baselines import GNNBaseline, normalized_adjacency, pad_graph_batch
from repro.datasets import make_dataset
from repro.graph import Graph, cycle_graph, path_graph, star_graph

from tests.oracles.features import _reference_one_hot_label_features


def one_hot_label_features(graphs, baseline=None):
    """One-hot label matrices through the baselines' ``_featurize``;
    pass the fitted ``baseline`` back to encode held-out graphs."""
    if baseline is None:
        baseline = GNNBaseline()
        return baseline._featurize(graphs, fit=True), baseline
    return baseline._featurize(graphs, fit=False), baseline


class TestOneHotFeatures:
    def test_shapes_and_values(self):
        g = Graph(3, [(0, 1)], [5, 7, 5])
        matrices, baseline = one_hot_label_features([g])
        assert baseline.vocabulary_.size == 2
        assert matrices[0].sum() == 3
        assert np.allclose(matrices[0][0], matrices[0][2])

    def test_shared_vocabulary_across_graphs(self):
        g1 = Graph(2, [], [0, 1])
        g2 = Graph(2, [], [1, 2])
        matrices, baseline = one_hot_label_features([g1, g2])
        assert baseline.vocabulary_.size == 3
        assert matrices[0].shape == (2, 3)

    def test_frozen_vocab_for_heldout(self):
        g1 = Graph(2, [], [0, 1])
        _, baseline = one_hot_label_features([g1])
        g2 = Graph(2, [], [1, 9])  # label 9 unseen
        matrices, _ = one_hot_label_features([g2], baseline)
        assert matrices[0][1].sum() == 0  # unknown label -> zero row


    @pytest.mark.parametrize("name", ["MUTAG", "PTC_MR", "ENZYMES", "NCI1", "IMDB-BINARY"])
    def test_bitwise_equal_to_the_int_key_oracle(self, name):
        graphs = make_dataset(name, scale=0.05, seed=0).graphs
        train, held_out = graphs[::2], graphs[1::2]
        got, baseline = one_hot_label_features(train)
        want, vocab = _reference_one_hot_label_features(train)
        assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
        got, _ = one_hot_label_features(held_out, baseline)
        want, _ = _reference_one_hot_label_features(held_out, vocab)
        assert [m.tobytes() for m in got] == [m.tobytes() for m in want]

    def test_column_order_of_labels_0_to_100(self):
        """``repr`` orders ``("label", l)`` keys as it orders ``l``."""
        graphs = [Graph(101, [], list(range(101))[::-1])]
        got, _ = one_hot_label_features(graphs)
        want, _ = _reference_one_hot_label_features(graphs)
        assert got[0].tobytes() == want[0].tobytes()


class TestPadding:
    def test_shapes(self):
        graphs = [path_graph(3), cycle_graph(5)]
        matrices, _ = one_hot_label_features(graphs)
        batch = pad_graph_batch(graphs, matrices)
        assert batch.features.shape == (2, 5, 1)
        assert batch.adjacency.shape == (2, 5, 5)
        assert batch.mask.shape == (2, 5)

    def test_mask_marks_real_vertices(self):
        graphs = [path_graph(2), path_graph(4)]
        matrices, _ = one_hot_label_features(graphs)
        batch = pad_graph_batch(graphs, matrices)
        assert batch.mask[0].tolist() == [1, 1, 0, 0]

    def test_padding_adjacency_zero(self):
        graphs = [path_graph(2), path_graph(4)]
        matrices, _ = one_hot_label_features(graphs)
        batch = pad_graph_batch(graphs, matrices)
        assert np.allclose(batch.adjacency[0, 2:, :], 0)
        assert np.allclose(batch.adjacency[0, :, 2:], 0)

    def test_truncates_to_w(self):
        graphs = [path_graph(6)]
        matrices, _ = one_hot_label_features(graphs)
        batch = pad_graph_batch(graphs, matrices, w=4)
        assert batch.features.shape[1] == 4

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            pad_graph_batch([path_graph(2)], [])


class TestNormalizedAdjacency:
    def test_rows_sum_to_one_for_real_vertices(self):
        graphs = [star_graph(4)]
        matrices, _ = one_hot_label_features(graphs)
        batch = pad_graph_batch(graphs, matrices)
        p = normalized_adjacency(batch.adjacency)
        assert np.allclose(p[0].sum(axis=1), 1.0)

    def test_padding_rows_only_self_loop(self):
        graphs = [path_graph(2), path_graph(4)]
        matrices, _ = one_hot_label_features(graphs)
        batch = pad_graph_batch(graphs, matrices)
        p = normalized_adjacency(batch.adjacency)
        # Padding rows: self-loop only -> normalised row is e_i; it cannot
        # leak into real vertices because columns to real vertices are 0.
        assert np.allclose(p[0, 2, :2], 0.0)
