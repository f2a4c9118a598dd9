"""One-pass gram assembly vs the preserved per-pair oracles.

Every kernel whose gram matrix was vectorized keeps its original
per-pair assembly as an oracle in ``tests/oracles/kernels.py``; this
suite pins the equality contract of each:

* **bitwise** for the explicit-feature kernels (GK, SP, WL) — all
  entries are integer-valued counts below 2^53, where float64 dot
  products are exact under any summation order, so the one-GEMM
  ``phi @ phi.T`` cannot drift from per-pair ``np.dot`` calls;
* **bitwise** for WL-OA — the count-matrix histogram intersection
  ``(a + b - |a - b|) / 2`` is integer arithmetic throughout;
* **ulp-bounded (rtol=1e-9)** for RetGK — BLAS reassociates the stacked
  GEMM and ``np.exp`` amplifies last-bit differences, so only closeness
  (plus exact symmetry, which the implementation restores explicitly)
  can be promised.

The WL gram *values* on the pinned dataset are additionally asserted
against the matrices captured before the WL radix remap: gram matrices
depend only on the color partition, so the remap must not move them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import WLVertexFeatures
from repro.features.vertex_maps import (
    GraphletVertexFeatures,
    ShortestPathVertexFeatures,
)
from repro.graph import Graph
from repro.kernels.base import ExplicitFeatureKernel, validate_gram
from repro.kernels.optimal_assignment import WLOptimalAssignmentKernel
from repro.kernels.retgk import ReturnProbabilityKernel

from tests.equivalence.conftest import assert_bitwise_equal, graph_batches
from tests.oracles.kernels import (
    _reference_explicit_gram,
    _reference_retgk_gram,
    _reference_wloa_gram,
)

#: Pinned-dataset gram matrices captured BEFORE the WL radix remap.
#: Both depend only on the WL color partition, never the color values.
PRE_REMAP_WL_GRAM_H2 = [[19.0, 7.0, 10.0], [7.0, 18.0, 7.0], [10.0, 7.0, 30.0]]
PRE_REMAP_WLOA_GRAM_H2 = [[15.0, 4.0, 4.0], [4.0, 12.0, 3.0], [4.0, 3.0, 18.0]]


def _pinned_dataset() -> list[Graph]:
    g1 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [0, 1, 0, 1, 2])
    g2 = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)], [1, 1, 0, 2])
    g3 = Graph(6, [(0, 1), (1, 2), (3, 4)], [0, 0, 1, 2, 2, 0])
    return [g1, g2, g3]


def _extractors():
    return [
        GraphletVertexFeatures(),
        ShortestPathVertexFeatures(),
        WLVertexFeatures(h=2),
    ]


class TestExplicitKernels:
    @settings(max_examples=25, deadline=None)
    @given(graph_batches(min_graphs=2), st.integers(0, 2))
    def test_gemm_bitwise_equals_per_pair(self, graphs, ext_idx):
        kernel = ExplicitFeatureKernel(_extractors()[ext_idx])
        assert_bitwise_equal(
            kernel.gram(graphs),
            _reference_explicit_gram(kernel, graphs),
            kernel.name,
        )

    def test_gram_entries_are_integral_counts(self):
        """The bitwise argument rests on every entry being an exact
        integer well below 2^53 — assert that premise directly."""
        for extractor in _extractors():
            k = ExplicitFeatureKernel(extractor).gram(_pinned_dataset())
            assert np.array_equal(k, np.round(k))
            assert k.max() < 2**53

    def test_wl_gram_unchanged_by_color_remap(self):
        kernel = ExplicitFeatureKernel(WLVertexFeatures(h=2))
        got = kernel.gram(_pinned_dataset())
        assert got.tolist() == PRE_REMAP_WL_GRAM_H2

    def test_outputs_are_valid_grams(self):
        for extractor in _extractors():
            validate_gram(ExplicitFeatureKernel(extractor).gram(_pinned_dataset()))


class TestWLOptimalAssignment:
    @settings(max_examples=25, deadline=None)
    @given(graph_batches(min_graphs=2), st.integers(0, 3))
    def test_count_matrix_bitwise_equals_counter_oracle(self, graphs, h):
        kernel = WLOptimalAssignmentKernel(h=h)
        assert_bitwise_equal(
            kernel.gram(graphs), _reference_wloa_gram(kernel, graphs), "wl-oa"
        )

    def test_empty_and_single_vertex_graphs(self):
        graphs = [Graph(0, [], []), Graph(1, [], [5]), *_pinned_dataset()]
        kernel = WLOptimalAssignmentKernel(h=2)
        assert_bitwise_equal(
            kernel.gram(graphs), _reference_wloa_gram(kernel, graphs)
        )

    def test_gram_unchanged_by_color_remap(self):
        got = WLOptimalAssignmentKernel(h=2).gram(_pinned_dataset())
        assert got.tolist() == PRE_REMAP_WLOA_GRAM_H2

    def test_empty_dataset(self):
        assert WLOptimalAssignmentKernel(h=1).gram([]).shape == (0, 0)


class TestRetGK:
    @settings(max_examples=15, deadline=None)
    @given(
        graph_batches(min_graphs=2, max_graphs=4),
        st.booleans(),
        st.sampled_from([None, 0.7]),
    )
    def test_stacked_gemm_within_ulp_bound(self, graphs, use_labels, gamma):
        kernel = ReturnProbabilityKernel(steps=4, gamma=gamma, use_labels=use_labels)
        got = kernel.gram(graphs)
        ref = _reference_retgk_gram(kernel, graphs)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_exactly_symmetric(self):
        got = ReturnProbabilityKernel(steps=6).gram(_pinned_dataset())
        assert got.tobytes() == got.T.copy().tobytes()

    def test_empty_graph_rows_are_zero(self):
        graphs = [Graph(0, [], []), *_pinned_dataset()]
        got = ReturnProbabilityKernel(steps=4).gram(graphs)
        ref = _reference_retgk_gram(ReturnProbabilityKernel(steps=4), graphs)
        assert np.all(got[0] == 0.0) and np.all(got[:, 0] == 0.0)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_block_boundaries_do_not_change_values(self):
        """Row-block size is a pure memory knob, never a value knob."""
        graphs = _pinned_dataset() * 3
        kernel = ReturnProbabilityKernel(steps=4)
        baseline = kernel.gram(graphs)
        small = ReturnProbabilityKernel(steps=4)
        small._BLOCK_VERTICES = 5  # forces many blocks
        np.testing.assert_allclose(
            small.gram(graphs), baseline, rtol=1e-9, atol=1e-12
        )
