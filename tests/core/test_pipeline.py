"""Tests for the Algorithm 1 encoding pipeline, including Theorem 1."""

import numpy as np
import pytest

from repro.core import DeepMapEncoder
from repro.features import (
    FeatureTable,
    FeatureVocabulary,
    WLVertexFeatures,
    extract_vertex_feature_matrices,
)
from repro.graph import Graph, cycle_graph, path_graph, star_graph

from tests.oracles.core import dense_input


def _encode(graphs, r=3, ordering="eigenvector"):
    table, _ = extract_vertex_feature_matrices(graphs, WLVertexFeatures(h=1))
    encoder = DeepMapEncoder(r=r, ordering=ordering).fit(graphs)
    return encoder.encode(graphs, table), table



class TestShapes:
    def test_tensor_shape(self):
        graphs = [cycle_graph(5), star_graph(7), path_graph(3)]
        enc, _ = _encode(graphs, r=3)
        assert enc.w == 7
        assert dense_input(enc).shape == (3, 7 * 3, enc.m)

    def test_vertex_mask(self):
        graphs = [path_graph(3), path_graph(5)]
        enc, _ = _encode(graphs, r=2)
        assert enc.vertex_mask[0].sum() == 3
        assert enc.vertex_mask[1].sum() == 5

    def test_explicit_w(self):
        graphs = [path_graph(3)]
        table, _ = extract_vertex_feature_matrices(graphs, WLVertexFeatures(h=1))
        enc = DeepMapEncoder(r=2, w=10).encode(graphs, table)
        assert dense_input(enc).shape[1] == 20

    def test_larger_graph_truncated_to_w(self):
        train = [path_graph(4)]
        _, vocab = extract_vertex_feature_matrices(train, WLVertexFeatures(h=1))
        encoder = DeepMapEncoder(r=2).fit(train)
        big = [path_graph(9)]
        counts = WLVertexFeatures(h=1).extract(big)
        big_table = vocab.vectorize_rows(counts[0])
        enc = encoder.encode(big, big_table)
        assert dense_input(enc).shape[1] == 4 * 2


class TestDummyZeroProperty:
    def test_padding_rows_zero(self):
        graphs = [path_graph(2), path_graph(6)]
        enc, _ = _encode(graphs, r=3)
        # Graph 0 has 2 vertices; slots 2..5 must be all-zero.
        padding = dense_input(enc)[0, 2 * 3 :, :]
        assert np.allclose(padding, 0.0)

    def test_unfilled_field_rows_zero(self):
        graphs = [path_graph(2)]
        enc, _ = _encode(graphs, r=4)
        # Each vertex's field has 2 real slots and 2 dummy rows.
        slot0 = dense_input(enc)[0, :4, :]
        assert np.allclose(slot0[2:], 0.0)
        assert not np.allclose(slot0[:2], 0.0)


class TestTheorem1:
    """Isomorphic graphs produce identical CNN input tensors (hence
    identical deep feature maps after the summation layer)."""

    @pytest.mark.parametrize("ordering", ["eigenvector", "degree"])
    def test_isomorphic_tensors_equal(self, ordering):
        # Star with labeled arms: distinct centralities break all ties.
        g = Graph(
            6,
            [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)],
            [0, 1, 1, 2, 0, 1],
        )
        perm = [5, 3, 1, 0, 2, 4]
        h = g.relabel_vertices(perm)
        table, _ = extract_vertex_feature_matrices([g, h], WLVertexFeatures(h=2))
        enc = DeepMapEncoder(r=3, ordering=ordering).fit([g, h]).encode(
            [g, h], table
        )
        assert np.allclose(dense_input(enc)[0], dense_input(enc)[1])

    def test_cycle_summed_maps_equal(self):
        """Even with ties (vertex-transitive cycle), the *summed* deep map
        input is permutation invariant."""
        g = cycle_graph(6).with_labels([0, 1, 0, 1, 0, 1])
        h = g.relabel_vertices([2, 3, 4, 5, 0, 1])
        table, _ = extract_vertex_feature_matrices([g, h], WLVertexFeatures(h=2))
        enc = DeepMapEncoder(r=3).fit([g, h]).encode([g, h], table)
        # Sum over positions = readout input after identical convolutions.
        assert np.allclose(
            dense_input(enc)[0].sum(axis=0), dense_input(enc)[1].sum(axis=0)
        )


class TestMemory:
    def test_encode_peak_stays_below_the_dense_tensor(self):
        """The encoding stores sparse feature rows once plus an index
        table; it never allocates the padded ``(n, w * r, m)`` float64
        tensor, nor even the dense ``(total_vertices + 1, m)`` feature
        table."""
        import tracemalloc

        from repro.datasets import make_dataset

        graphs = make_dataset("IMDB-BINARY", scale=0.03, seed=0).graphs
        table, _ = extract_vertex_feature_matrices(graphs, WLVertexFeatures(h=2))
        encoder = DeepMapEncoder(r=3).fit(graphs)
        n, w, r, m = len(graphs), encoder.w, encoder.r, table.m
        assert min(g.n for g in graphs) < w  # padded batch
        tracemalloc.start()
        try:
            encoded = encoder.encode(graphs, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert encoded.shape == (n, w * r, m)
        assert peak < (sum(g.n for g in graphs) + 1) * m * 8


class TestValidation:
    def test_rejects_misaligned_inputs(self):
        graphs = [path_graph(3)]
        with pytest.raises(ValueError, match="align"):
            DeepMapEncoder(r=2).fit(graphs).encode(
                graphs, FeatureVocabulary().vectorize_rows([])
            )

    def test_rejects_wrong_matrix_shape(self):
        graphs = [path_graph(3)]
        empty_rows = FeatureTable(
            np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), 4
        )
        with pytest.raises(ValueError, match="shape"):
            DeepMapEncoder(r=2).fit(graphs).encode(graphs, empty_rows)

    def test_rejects_empty_fit(self):
        with pytest.raises(ValueError):
            DeepMapEncoder(r=2).fit([])

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            DeepMapEncoder(r=0)


class TestInstrumentation:
    """Encoding under observability: same tensors, stage spans recorded."""

    def test_output_identical_enabled_vs_disabled(self):
        from repro import obs

        graphs = [cycle_graph(5), star_graph(6)]
        enc_off, _ = _encode(graphs, r=3)
        obs.reset()
        obs.enable()
        try:
            enc_on, _ = _encode(graphs, r=3)
        finally:
            obs.disable()
            obs.reset()
        np.testing.assert_array_equal(dense_input(enc_off), dense_input(enc_on))
        np.testing.assert_array_equal(enc_off.vertex_mask, enc_on.vertex_mask)

    def test_stage_spans_recorded(self):
        from repro import obs

        graphs = [cycle_graph(5), path_graph(4)]
        obs.reset()
        obs.enable()
        try:
            _encode(graphs, r=2)
            paths = [p for p, _ in obs.get_tracer().rows()]
            encoded_total = obs.get_metrics().snapshot()[
                "graphs_encoded_total"
            ]["value"]
        finally:
            obs.disable()
            obs.reset()
        for expected in (
            "feature_map",
            "feature_map/extract",
            "encode",
            "encode/alignment",
            "encode/receptive_field",
            "encode/assemble",
        ):
            assert expected in paths, f"missing span {expected!r}"
        assert encoded_total == 2
