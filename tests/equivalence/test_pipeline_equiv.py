"""Encoder tensor assembly vs the per-slot reference, end to end.

Also pins the encoder output for a fixed 3-graph dataset to digests
captured across PRs — a cross-session guarantee about which parts of the
encode path are bitwise-stable:

* the SP-feature digests predate both the encoder fusion and the WL
  radix remap and must never change (they prove fusion is a pure
  refactor);
* the WL-feature tensor digest changed exactly once, when the WL colors
  moved from blake2b hex strings to splitmix64 integer codes — the
  vocabulary *keys* embed the raw color values, so the one-hot feature
  columns permuted.  The partition (and hence the vocabulary size, the
  mask, and every gram value) is unchanged; the old digest is kept below
  for the record.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alignment import (
    centrality_scores,
    union_vertex_order,
    vertex_sequence,
)
from repro.core.pipeline import DeepMapEncoder
from repro.core.receptive_field import (
    all_receptive_fields,
    all_receptive_fields_many,
)
from repro.features import WLVertexFeatures, extract_vertex_feature_matrices
from repro.features.vertex_maps import ShortestPathVertexFeatures
from repro.graph import Graph

from tests.equivalence.conftest import assert_bitwise_equal, graph_batches
from tests.oracles.core import (
    _assemble,
    _reference_assemble,
    _reference_encode_stages,
)

#: Encoder output digests for `_pinned_dataset()` with SP features and
#: r=3, captured before the fused-encode PR.  SP features are untouched
#: by the WL remap, so these pins must survive every encoder refactor.
PRE_PR_SP_TENSOR_DIGEST = "ffa1060c3958ab084ad16fe9707e066e"
PRE_PR_SP_VOCAB_SIZE = 17

#: Mask digest (feature-independent) captured at the seed commit.
PRE_PR_MASK_DIGEST = "f1d8f47b9bfaf6028a0ca325c8a61bc8"

#: WL h=2, r=3 tensor digest under the splitmix64 color codes.  The
#: pre-remap (blake2b-color) value was c19a8d10d1f7543d4a1fc843aaf123ac;
#: the change is a documented one-time break (vocabulary keys embed the
#: raw colors), with the partition itself pinned by the unchanged
#: vocabulary size below and by tests/equivalence/test_wl_equiv.py.
WL_TENSOR_DIGEST = "cfc33ee3c268e7c0e64a678209ef98f2"
WL_VOCAB_SIZE = 29


def _pinned_dataset() -> list[Graph]:
    g1 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [0, 1, 0, 1, 2])
    g2 = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)], [1, 1, 0, 2])
    g3 = Graph(6, [(0, 1), (1, 2), (3, 4)], [0, 0, 1, 2, 2, 0])
    return [g1, g2, g3]


def _encode_inputs(graphs, r, w):
    matrices, vocab = extract_vertex_feature_matrices(graphs, WLVertexFeatures(h=1))
    scores = [centrality_scores(g, "eigenvector") for g in graphs]
    sequences = [
        vertex_sequence(g, s, "eigenvector")[:w] for g, s in zip(graphs, scores)
    ]
    fields = [all_receptive_fields(g, r, s) for g, s in zip(graphs, scores)]
    return matrices, sequences, fields, vocab.size


class TestAssemble:
    @settings(max_examples=40)
    @given(graph_batches(), st.integers(1, 5))
    def test_matches_reference(self, graphs, r):
        w = max(g.n for g in graphs)
        matrices, sequences, fields, m = _encode_inputs(graphs, r, w)
        got_t, got_m = _assemble(matrices, sequences, fields, w, r, m)
        ref_t, ref_m = _reference_assemble(matrices, sequences, fields, w, r, m)
        assert_bitwise_equal(got_t, ref_t, "tensors")
        assert_bitwise_equal(got_m, ref_m, "vertex_mask")

    @settings(max_examples=25)
    @given(graph_batches(min_graphs=2), st.integers(1, 4), st.integers(1, 4))
    def test_dummy_padded_batches_match_reference(self, graphs, r, extra_w):
        """w above the largest graph forces dummy sequence padding."""
        w = max(g.n for g in graphs) + extra_w
        matrices, sequences, fields, m = _encode_inputs(graphs, r, w)
        got_t, got_m = _assemble(matrices, sequences, fields, w, r, m)
        ref_t, ref_m = _reference_assemble(matrices, sequences, fields, w, r, m)
        assert_bitwise_equal(got_t, ref_t, "tensors")
        assert_bitwise_equal(got_m, ref_m, "vertex_mask")

    @settings(max_examples=25)
    @given(graph_batches(min_graphs=2), st.integers(1, 3))
    def test_truncating_w_matches_reference(self, graphs, r):
        """w below the largest graph keeps only top-centrality vertices."""
        w = max(1, max(g.n for g in graphs) - 1)
        matrices, sequences, fields, m = _encode_inputs(graphs, r, w)
        got = _assemble(matrices, sequences, fields, w, r, m)
        ref = _reference_assemble(matrices, sequences, fields, w, r, m)
        assert_bitwise_equal(got[0], ref[0])
        assert_bitwise_equal(got[1], ref[1])


class TestFusedStages:
    """The fused union-order path vs the per-graph staged components."""

    @settings(max_examples=40)
    @given(graph_batches())
    def test_union_sequences_match_per_graph(self, graphs):
        scores = [centrality_scores(g, "eigenvector") for g in graphs]
        union = union_vertex_order(graphs, scores)
        for gi, (g, s) in enumerate(zip(graphs, scores)):
            assert_bitwise_equal(
                union.sequence(gi),
                vertex_sequence(g, s, "eigenvector"),
                f"sequence[{gi}]",
            )

    @settings(max_examples=40)
    @given(graph_batches(), st.integers(1, 6))
    def test_receptive_fields_many_match_per_graph(self, graphs, r):
        scores = [centrality_scores(g, "eigenvector") for g in graphs]
        many = all_receptive_fields_many(graphs, r, scores)
        for gi, (g, s) in enumerate(zip(graphs, scores)):
            assert_bitwise_equal(
                many[gi], all_receptive_fields(g, r, s), f"fields[{gi}]"
            )

    def test_single_vertex_and_star_mix(self):
        """Degenerate sizes exercise the flat pair-segment arithmetic."""
        graphs = [
            Graph(1, [], [3]),
            Graph(7, [(0, i) for i in range(1, 7)], [0] * 7),
            Graph(1, [], [3]),
            Graph(2, [(0, 1)], [1, 0]),
        ]
        scores = [centrality_scores(g, "eigenvector") for g in graphs]
        for r in (1, 2, 5):
            many = all_receptive_fields_many(graphs, r, scores)
            for gi, (g, s) in enumerate(zip(graphs, scores)):
                assert_bitwise_equal(many[gi], all_receptive_fields(g, r, s))


class TestEncodeEndToEnd:
    @settings(max_examples=20)
    @given(graph_batches(), st.integers(1, 4))
    def test_encode_equals_reference_composition(self, graphs, r):
        matrices, _ = extract_vertex_feature_matrices(graphs, WLVertexFeatures(h=1))
        encoder = DeepMapEncoder(r=r).fit(graphs)
        encoded = encoder.encode(graphs, matrices)
        w, m = encoder.w, matrices[0].shape[1]
        _, sequences, fields, _ = _encode_inputs(graphs, r, w)
        ref_t, ref_m = _reference_assemble(matrices, sequences, fields, w, r, m)
        assert_bitwise_equal(encoded.tensors, ref_t, "tensors")
        assert_bitwise_equal(encoded.vertex_mask, ref_m, "vertex_mask")

    @settings(max_examples=20)
    @given(graph_batches(), st.integers(1, 4), st.integers(0, 3))
    def test_fused_encode_equals_staged_stages(self, graphs, r, extra_w):
        """The full fused path vs the preserved pre-fusion staged body,
        including dummy-padded sequence slots (w above every graph)."""
        matrices, _ = extract_vertex_feature_matrices(graphs, WLVertexFeatures(h=1))
        w = max(g.n for g in graphs) + extra_w
        encoder = DeepMapEncoder(r=r, w=w)
        encoded = encoder.encode(graphs, matrices)
        ref_t, ref_m = _reference_encode_stages(
            graphs, matrices, w, r, matrices[0].shape[1]
        )
        assert_bitwise_equal(encoded.tensors, ref_t, "tensors")
        assert_bitwise_equal(encoded.vertex_mask, ref_m, "vertex_mask")

    def test_fused_encode_single_vertex_graphs(self):
        graphs = [Graph(1, [], [0]), Graph(1, [], [1]), Graph(3, [(0, 1)], [0, 1, 1])]
        matrices, _ = extract_vertex_feature_matrices(graphs, WLVertexFeatures(h=1))
        encoder = DeepMapEncoder(r=2).fit(graphs)
        encoded = encoder.encode(graphs, matrices)
        ref_t, ref_m = _reference_encode_stages(
            graphs, matrices, encoder.w, 2, matrices[0].shape[1]
        )
        assert_bitwise_equal(encoded.tensors, ref_t)
        assert_bitwise_equal(encoded.vertex_mask, ref_m)

    def test_pinned_sp_digests_unchanged(self):
        """SP-feature encode must match the pre-fusion capture exactly."""
        graphs = _pinned_dataset()
        matrices, vocab = extract_vertex_feature_matrices(
            graphs, ShortestPathVertexFeatures()
        )
        assert vocab.size == PRE_PR_SP_VOCAB_SIZE
        encoded = DeepMapEncoder(r=3).fit(graphs).encode(graphs, matrices)
        tensor_digest = hashlib.blake2b(
            encoded.tensors.tobytes(), digest_size=16
        ).hexdigest()
        mask_digest = hashlib.blake2b(
            encoded.vertex_mask.tobytes(), digest_size=16
        ).hexdigest()
        assert tensor_digest == PRE_PR_SP_TENSOR_DIGEST
        assert mask_digest == PRE_PR_MASK_DIGEST

    def test_pinned_wl_digests(self):
        """WL-feature encode under the splitmix64 color codes.  The
        vocabulary size equals the pre-remap value — the partition did
        not change, only the color values feeding the vocabulary keys."""
        graphs = _pinned_dataset()
        matrices, vocab = extract_vertex_feature_matrices(graphs, WLVertexFeatures(h=2))
        assert vocab.size == WL_VOCAB_SIZE
        encoded = DeepMapEncoder(r=3).fit(graphs).encode(graphs, matrices)
        tensor_digest = hashlib.blake2b(
            encoded.tensors.tobytes(), digest_size=16
        ).hexdigest()
        mask_digest = hashlib.blake2b(
            encoded.vertex_mask.tobytes(), digest_size=16
        ).hexdigest()
        assert tensor_digest == WL_TENSOR_DIGEST
        assert mask_digest == PRE_PR_MASK_DIGEST

    def test_dummy_rows_are_all_zero(self):
        graphs = _pinned_dataset()
        matrices, _ = extract_vertex_feature_matrices(graphs, WLVertexFeatures(h=1))
        encoded = DeepMapEncoder(r=4).fit(graphs).encode(graphs, matrices)
        # Graph 2 has 4 vertices; w is 6, so slots 4..5 are dummy padding.
        w, r = encoded.w, encoded.r
        pad = encoded.tensors[1, 4 * r :]
        assert np.all(pad == 0.0)
        assert encoded.vertex_mask[1].tolist() == [1, 1, 1, 1, 0, 0]
