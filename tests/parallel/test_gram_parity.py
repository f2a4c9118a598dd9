"""Kernel-SVM cross-validation on the one-GEMM gram path: fork-pool parity.

The gram matrix is assembled once (one GEMM / count-matrix pass) and the
folds only index into it, so cross-validation through the fork pool must
be bitwise-identical to the sequential loop at every worker count — any
divergence would mean the vectorized assembly leaks batch- or
process-dependent state into the fold results.
"""

from __future__ import annotations

import pytest

from repro.eval.protocol import evaluate_kernel_svm
from repro.features import WLVertexFeatures
from repro.kernels.base import ExplicitFeatureKernel
from repro.kernels.optimal_assignment import WLOptimalAssignmentKernel
from repro.parallel import parallelism_available

from tests.oracles.kernels import _reference_explicit_gram

pytestmark = pytest.mark.skipif(
    not parallelism_available(), reason="fork pool unavailable on this platform"
)


def _run(kernel, dataset, workers):
    result = evaluate_kernel_svm(
        kernel, dataset, n_splits=4, seed=11, workers=workers
    )
    return result.fold_accuracies, result.extra["selected_c"]


class TestKernelCVParity:
    def test_wl_gemm_gram_cv_parity_across_worker_counts(self, cv_dataset):
        kernel = ExplicitFeatureKernel(WLVertexFeatures(h=2))
        baseline = _run(kernel, cv_dataset, workers=1)
        for workers in (2, 3, 4):
            assert _run(kernel, cv_dataset, workers) == baseline, (
                f"workers={workers}"
            )

    def test_wloa_count_matrix_cv_parity(self, cv_dataset):
        kernel = WLOptimalAssignmentKernel(h=2)
        baseline = _run(kernel, cv_dataset, workers=1)
        for workers in (2, 4):
            assert _run(kernel, cv_dataset, workers) == baseline, (
                f"workers={workers}"
            )

    def test_gemm_and_reference_gram_reach_identical_cv(self, cv_dataset):
        """End-to-end: swapping the assembly for the per-pair oracle
        changes nothing downstream (the gram bytes are equal)."""
        kernel = ExplicitFeatureKernel(WLVertexFeatures(h=2))

        class OracleShim:
            name = kernel.name

            def gram(self, graphs):
                return _reference_explicit_gram(kernel, graphs)

        fast = evaluate_kernel_svm(kernel, cv_dataset, n_splits=4, seed=3)
        slow = evaluate_kernel_svm(OracleShim(), cv_dataset, n_splits=4, seed=3)
        assert fast.fold_accuracies == slow.fold_accuracies
        assert fast.extra["selected_c"] == slow.extra["selected_c"]
